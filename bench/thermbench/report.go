package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the harness reads: the run length,
// the workloads and the metrics a run reports.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return &s, nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is one workload run's outcome: every metric it measured and
// every request or check that failed.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

func (r *result) set(name string, v float64, unit, note string) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, v, unit, note}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// fail counts one failed check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// absorb counts a phase's requests and failures.
func (r *result) absorb(label string, p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, e := range p.errs {
		r.problems = append(r.problems, label+": "+e)
	}
}

func (r *result) correct() bool { return r.failed == 0 }

// print writes the human-readable table: one line per metric.
func (r *result) print(w io.Writer) {
	for _, m := range r.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(w, "%-17s %-28s %14s %-5s%s\n", r.workload, m.name, formatValue(m.value), m.unit, note)
	}
	fmt.Fprintf(w, "%-17s %-28s %14d/%d failed\n", r.workload, "requests+checks", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-17s FAILED: %s\n", r.workload, p)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line a run ends with.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize picks the metrics BENCHMARK.json lists for the mode from the
// results; a listed metric a workload did not measure is an error. With
// several results the names are prefixed by the workload.
func summarize(results []*result, want []specMetric) (summary, error) {
	s := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, w := range want {
			m, ok := r.get(w.Name)
			if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return s, fmt.Errorf("%s did not measure %s", r.workload, w.Name)
			}
			if m.unit != w.Unit {
				return s, fmt.Errorf("%s: %s is in %s, BENCHMARK.json says %s", r.workload, w.Name, m.unit, w.Unit)
			}
			key := w.Name
			if len(results) > 1 {
				key = r.workload + "/" + w.Name
			}
			s.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	return s, nil
}

// record is one line of an -out file: a workload run with every metric
// it measured.
type record struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) record(seed int64, seconds int, trace bool) record {
	rec := record{Workload: r.workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		rec.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return rec
}

// appendRecords appends one JSON line per result to path.
func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// quantile returns the p-quantile of xs, interpolating between order
// statistics; NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
