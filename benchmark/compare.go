package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricSummary is one metric on one workload over the runs of a result file.
type metricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  *float64  `json:"bound,omitempty"`
	Values []float64 `json:"values"` // one per run
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// bound is the share of the median by which the metric may worsen; 0 for a
// metric that declares none.
func (m metricSummary) bound() float64 {
	if m.Bound == nil {
		return 0
	}
	return *m.Bound
}

type workloadResult struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FailFrac  float64         `json:"fail_frac"`
	EndToEnd  []metricSummary `json:"end_to_end"`
	PerLayer  []metricSummary `json:"per_layer"`
	Untraced  []runOutput     `json:"untraced_runs"`
	Traced    *runOutput      `json:"traced_run,omitempty"`
}

// resultFile is what a run of every workload writes: the same blocks
// BENCHMARK.json declares, filled in, with the counts and the fingerprint.
type resultFile struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	RunSeconds  float64          `json:"run_seconds"`
	Workloads   []workloadResult `json:"workloads"`
}

func summarise(d metricDecl, values []float64) metricSummary {
	q1, q2, q3 := quartiles(values)
	return metricSummary{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Values: values, Median: q2, Q1: q1, Q3: q3}
}

// summarise fills the metric blocks from the runs.
func (w *workloadResult) summarise(spec *benchSpec) {
	for _, r := range w.Untraced {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
	}
	w.FailFrac = failFrac(w.Attempted, w.Failed)
	if len(w.Untraced) > 0 {
		for _, d := range spec.EndToEnd {
			var values []float64
			for _, r := range w.Untraced {
				values = append(values, r.Values[d.Name])
			}
			w.EndToEnd = append(w.EndToEnd, summarise(d, values))
		}
	}
	if w.Traced != nil {
		for _, d := range spec.PerLayer {
			w.PerLayer = append(w.PerLayer, summarise(d, []float64{w.Traced.Values[d.Name]}))
		}
	}
}

func (r *resultFile) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges B against A on one end-to-end metric. A change is only
// called a regression or an improvement when the runs' own quartile spread
// is within the bound; otherwise it is unresolved, as it is when either
// side has a single run and so no spread at all.
func verdict(a, b metricSummary) (worse, spreadAB float64, v string) {
	lower := a.Better == "lower"
	worse = worsening(a.Median, b.Median, lower)
	spreadAB = max(spread(a.Values), spread(b.Values))
	bound := a.bound()
	switch {
	case len(a.Values) < 2 || len(b.Values) < 2:
		v = "unresolved (a single run has no spread; use -runs)"
	case spreadAB > bound:
		v = "unresolved (spread exceeds the bound)"
	case worse > bound:
		v = "REGRESSED"
	case -worse > spreadAB:
		v = "improved"
	default:
		v = "within bound"
	}
	return worse, spreadAB, v
}

// compareFiles reports B against A, metric by metric and workload by
// workload. It refuses results from different hosts. It exits 1 when an
// end-to-end metric regressed and 2 when the files cannot be compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := sameHost(a.Fingerprint, b.Fingerprint); err != nil {
		fmt.Fprintf(stderr, "refusing to compare: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s (commit %s, seed %d)\nB: %s (commit %s, seed %d)\n",
		pathA, a.Fingerprint.Commit, a.Fingerprint.Seed, pathB, b.Fingerprint.Commit, b.Fingerprint.Seed)
	regressed := false
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(stdout, "== %s: missing from B\n", wa.Name)
			continue
		}
		fmt.Fprintf(stdout, "== %s  fail_frac %.4g -> %.4g\n", wa.Name, wa.FailFrac, wb.FailFrac)
		if wb.FailFrac > wa.FailFrac {
			fmt.Fprintf(stdout, "   more operations fail in B: REGRESSED\n")
			regressed = true
		}
		for i, ma := range wa.EndToEnd {
			if i >= len(wb.EndToEnd) || wb.EndToEnd[i].Name != ma.Name {
				continue
			}
			mb := wb.EndToEnd[i]
			worse, sp, v := verdict(ma, mb)
			direction := "worse"
			if worse < 0 {
				direction = "better"
			}
			fmt.Fprintf(stdout, "   %-14s %12.6g -> %12.6g %-5s B is %.1f%% of A %s, bound %.0f%%, spread %.1f%%, n=%d/%d: %s\n",
				ma.Name, ma.Median, mb.Median, ma.Unit, 100*math.Abs(worse), direction, 100*ma.bound(), 100*sp, len(ma.Values), len(mb.Values), v)
			regressed = regressed || v == "REGRESSED"
		}
		for i, ma := range wa.PerLayer {
			if i >= len(wb.PerLayer) || wb.PerLayer[i].Name != ma.Name || (ma.Median == 0 && wb.PerLayer[i].Median == 0) {
				continue
			}
			mb := wb.PerLayer[i]
			fmt.Fprintf(stdout, "   %-38s %12.6g -> %12.6g %-6s (%+.1f%%, one traced run each, not gated)\n",
				ma.Name, ma.Median, mb.Median, ma.Unit, 100*(mb.Median-ma.Median)/nonZero(ma.Median))
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
