package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// reported are the end-to-end metrics every run records but
// BENCHMARK.json does not gate, because they do not repeat on a host
// whose speed drifts (bench/README.md). compare still shows them, so a
// change can claim a gain on them by the same rule.
var reported = []specMetric{
	{Name: "service_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher"},
}

// floors are absolute allowances, in the metric's unit, below which a
// gated metric's change is never a regression or its spread unresolved.
// A set-up of a few milliseconds moves by more than its bound when the
// host wobbles by a millisecond or two.
var floors = map[string]float64{"setup_s": 0.2}

// runCompare is `thermbench compare -base A -new B`: for every workload
// and end-to-end metric it pairs the i-th untraced run of A with the i-th
// of B and prints one verdict row. It exits 1 when a gated metric
// regressed.
func runCompare(args []string, root string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "runs of the parent (an -out file)")
	newPath := fs.String("new", "", "runs of the change (an -out file)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "thermbench compare:", err)
		return 2
	}
	base, err := readRecords(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench compare:", err)
		return 2
	}
	nw, err := readRecords(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench compare:", err)
		return 2
	}
	if compareSets(stdout, sp, base, nw) {
		return 1
	}
	return 0
}

// readRecords reads an -out file's untraced runs, grouped by workload in
// file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// compareSets prints one row per (workload, end-to-end metric) and
// reports whether any gated metric regressed.
func compareSets(w io.Writer, sp *spec, base, nw map[string][]record) bool {
	metrics := sp.EndToEnd
	for _, m := range reported {
		gated := false
		for _, g := range sp.EndToEnd {
			gated = gated || g.Name == m.Name
		}
		if !gated {
			metrics = append(metrics, m)
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-17s %-15s %-32s %-32s %8s %6s %s\n", "workload", "metric",
		"parent median [q1, q3] spread", "change median [q1, q3] spread", "Δ", "wins", "verdict")
	for _, wl := range sp.Workloads {
		a, b := base[wl.Name], nw[wl.Name]
		for _, m := range metrics {
			av, bv := values(a, m.Name), values(b, m.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			c := compareMetric(av, bv, m.Better, m.Bound, floors[m.Name])
			regressed = regressed || c.verdict == "regression"
			fmt.Fprintf(w, "%-17s %-15s %-32s %-32s %+7.1f%% %6s %s\n", wl.Name, m.Name,
				c.base.String(), c.change.String(), 100*c.delta(), fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return regressed
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles are a sample's median and first and third quartiles.
type quartiles struct{ q1, med, q3 float64 }

func (q quartiles) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %.0f%%", q.med, q.q1, q.q3, 100*q.spread())
}

// spread is the interquartile range as a share of the median.
func (q quartiles) spread() float64 { return (q.q3 - q.q1) / math.Abs(q.med) }

// quartilesOf computes the quartiles the way Python's
// statistics.quantiles(data, n=4) does (its default exclusive method), so
// spreads here match the ones the contract is checked with.
func quartilesOf(xs []float64) quartiles {
	if len(xs) < 2 {
		return quartiles{math.NaN(), math.NaN(), math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return quartiles{cut(1), cut(2), cut(3)}
}

// comparison is one metric's verdict over paired runs.
type comparison struct {
	base, change quartiles
	wins, pairs  int
	verdict      string
}

// delta is the change's median relative to the parent's.
func (c comparison) delta() float64 { return (c.change.med - c.base.med) / math.Abs(c.base.med) }

// compareMetric applies the comparison rule. A gated metric's allowance
// is max(bound × the parent's median, floor): a regression when the
// change's median is worse than the parent's by more than that; a gain
// when the change wins at least 9 of 10 pairs (ties count for neither)
// and the medians differ by more than the parent's interquartile range;
// unresolved when either side's interquartile range exceeds the
// allowance, unless every run of the change beats every run of the
// parent; unchanged otherwise. A metric without a bound is not gated: it
// is a gain or nothing.
func compareMetric(base, change []float64, better string, bound, floor float64) comparison {
	c := comparison{base: quartilesOf(base), change: quartilesOf(change), pairs: min(len(base), len(change))}
	if len(base) < 2 || len(change) < 2 {
		c.verdict = "too few runs"
		return c
	}
	beats := func(x, y float64) bool {
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < c.pairs; i++ {
		if beats(change[i], base[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, x := range change {
		for _, y := range base {
			allBetter = allBetter && beats(x, y)
		}
	}
	worse := c.change.med - c.base.med
	if better == "higher" {
		worse = -worse
	}
	allowance := math.Max(bound*math.Abs(c.base.med), floor)
	gain := 10*c.wins >= 9*c.pairs && beats(c.change.med, c.base.med) &&
		math.Abs(c.change.med-c.base.med) > c.base.q3-c.base.q1
	switch {
	case bound <= 0 && gain:
		c.verdict = "gain (not gated)"
	case bound <= 0:
		c.verdict = "not gated"
	case worse > allowance:
		c.verdict = "regression"
	case gain:
		c.verdict = "gain"
	case (c.base.q3-c.base.q1 > allowance || c.change.q3-c.change.q1 > allowance) && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}
