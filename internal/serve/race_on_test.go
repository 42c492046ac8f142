//go:build race

package serve

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop a share of what is put back and so inflates
// allocation counts.
const raceEnabled = true
