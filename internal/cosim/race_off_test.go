//go:build !race

package cosim

// raceEnabled reports whether the tests run under the race detector, which
// slows the numerical kernels about twentyfold.
const raceEnabled = false
