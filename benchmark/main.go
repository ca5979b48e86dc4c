// Command benchmark is the repository's benchmark: four workloads shaped
// like the source papers' experiments, measured end to end through the
// public entry points and layer by layer through each internal package's
// exported functions. BENCHMARK.json, one directory up, declares the
// metrics; README.md here says what each is for.
//
//	bash benchmark/run.sh                                    every workload, untraced then traced
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets the system up, after one
// set-up that is discarded because it also pays for what a process does
// once (page faults, transform-plan caches, heap growth); setup_s is their
// interquartile mean, for the reason op_ms is one: a set-up ends with an
// operation, so it is quantised too. A traced run reports no setup time and
// sets up once.
const setupReps = 7

// tracePairs is how many untraced and traced stretches a traced run
// alternates between.
const tracePairs = 3

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// cleanups run when the process ends, by return or by signal: they stop
// the server child and remove temporary directories. Each is safe to run
// after the workload has already cleaned up after itself.
var cleanups struct {
	sync.Mutex
	fns []func()
}

func atExit(f func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, f)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// runOutput is one run of one workload, untraced (the end-to-end metrics)
// or traced (the per-layer ones).
type runOutput struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Values    map[string]float64 `json:"values"`
	Ops       opStats            `json:"ops"`
}

// opStats describes the operations behind a run's numbers.
type opStats struct {
	N      int     `json:"n"`
	Median float64 `json:"median_ms"`
	Q1     float64 `json:"q1_ms"`
	Q3     float64 `json:"q3_ms"`
	Min    float64 `json:"min_ms"`
	Max    float64 `json:"max_ms"`
	P90    float64 `json:"p90_ms"` // 0 unless ten operations lie beyond it
	P99    float64 `json:"p99_ms"`
}

func describeOps(lat []float64) opStats {
	if len(lat) == 0 {
		return opStats{}
	}
	s := sorted(lat)
	q1, q2, q3 := quartiles(lat)
	return opStats{N: len(lat), Median: 1e3 * q2, Q1: 1e3 * q1, Q3: 1e3 * q3, Min: 1e3 * s[0], Max: 1e3 * s[len(s)-1],
		P90: 1e3 * tailOrZero(lat, 0.90), P99: 1e3 * tailOrZero(lat, 0.99)}
}

// runOnce runs one workload once. Untraced, it sets up setupReps times,
// warms up, measures for c.seconds and reports the end-to-end metrics.
// Traced, it measures half the time without the recorder and half with it,
// then times the workload's layers, writes the trace and reports the
// per-layer metrics; every metric it reports is also a count in the trace.
func runOnce(w workload, c *runCtx, trace bool, fp fingerprint) (*runOutput, error) {
	inst, err := w.start(c)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	reps := 1 + setupReps
	if trace || c.smoke {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		s, err := inst.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i > 0 || reps == 1 {
			setups = append(setups, s)
		}
	}
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	d := time.Duration(c.seconds * float64(time.Second))
	minOps := w.minOps
	if c.smoke {
		minOps = min(minOps, 5)
	}
	out := &runOutput{Values: map[string]float64{}}
	var timed section
	if !trace {
		timed = inst.measure(d, minOps, nil, 0)
		out.Values["op_ms"] = 1e3 * midMean(timed.lat)
		if timed.busy > 0 {
			out.Values["voxels_per_s"] = timed.voxels / timed.busy
		}
		out.Values["setup_s"] = midMean(setups)
	} else {
		// Untraced and traced stretches alternate, so that a machine that
		// speeds up or slows down during the run does so under both.
		rec := newRecorder()
		root := rec.begin(w.name, 0, 0)
		var traced section
		for i := 0; i < tracePairs; i++ {
			timed.merge(inst.measure(d/(2*tracePairs), minOps/(2*tracePairs)+1, nil, 0))
			part := inst.measure(d/(2*tracePairs), minOps/(2*tracePairs)+1, rec, root)
			traced.merge(part)
			for k, v := range part.counts {
				out.Values[k] += v / tracePairs
			}
		}
		layers, err := inst.layers(rec, root)
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		for k, v := range layers {
			out.Values[k] = v
		}
		if m := midMean(timed.lat); m > 0 {
			out.Values["trace_overhead_frac"] = midMean(traced.lat)/m - 1
		}
		timed.merge(traced)
		out.Values["op_p90_ms"] = 1e3 * tailOrZero(timed.lat, 0.90)
		out.Values["op_p99_ms"] = 1e3 * tailOrZero(timed.lat, 0.99)
		for k, v := range out.Values {
			rec.count(k, v)
		}
		path := filepath.Join(c.outDir, "trace_"+w.name+".json")
		if err := rec.write(path, w.name, fp); err != nil {
			return nil, err
		}
	}
	out.Attempted, out.Failed = timed.attempted, timed.failed
	out.Ops = describeOps(timed.lat)
	out.Checks = inst.verify()
	out.Correct = out.Failed == 0 && len(timed.lat) > 0
	for _, ch := range out.Checks {
		out.Correct = out.Correct && ch.OK
	}
	return out, nil
}

// driverLine is the last line of a single-workload run: every declared
// metric of the run's kind, by name. A per-layer metric this workload does
// not exercise reads 0.
func driverLine(out *runOutput, decls []metricDecl, requireAll bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range decls {
		v, ok := out.Values[d.Name]
		if !ok && requireAll {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
	return string(line), err
}

func printRun(w io.Writer, name string, c *runCtx, out *runOutput, decls []metricDecl) {
	fmt.Fprintf(w, "== %s  seed %d  %.3g s  correct=%v  attempted=%d failed=%d fail_frac=%.4g\n",
		name, c.seed, c.seconds, out.Correct, out.Attempted, out.Failed, failFrac(out.Attempted, out.Failed))
	for _, ch := range out.Checks {
		verdict := "ok"
		if !ch.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "   check %-26s %s: %s\n", ch.Name, verdict, ch.Detail)
	}
	o := out.Ops
	fmt.Fprintf(w, "   operations: n=%d  median %.4g ms  quartiles %.4g..%.4g  min %.4g  max %.4g", o.N, o.Median, o.Q1, o.Q3, o.Min, o.Max)
	if o.P90 > 0 {
		fmt.Fprintf(w, "  p90 %.4g", o.P90)
	}
	if o.P99 > 0 {
		fmt.Fprintf(w, "  p99 %.4g", o.P99)
	}
	fmt.Fprintln(w)
	for _, d := range decls {
		v, ok := out.Values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-38s %14.6g %-6s %s is better", d.Name, v, d.Unit, d.Better)
		if d.Bound != nil {
			fmt.Fprintf(w, ", bound %.2f", *d.Bound)
		}
		fmt.Fprintln(w)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// enterRoot makes the root of the checkout the working directory: where
// BENCHMARK.json is, and where ./cmd/znn-serve builds from.
func enterRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return os.Chdir(dir)
		}
	}
	return errors.New("BENCHMARK.json not found: run from the root of the checkout")
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input and of weight initialisation")
	seconds := fs.Float64("seconds", 0, "length of the timed section (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run (default: both)")
	runs := fs.Int("runs", 1, "with no -workload: untraced runs per workload, on consecutive seeds")
	smoke := fs.Bool("smoke", false, "run at 1/50 size: exercises every check, measures nothing")
	corrupt := fs.Bool("corrupt", false, "spoil one expected value; the run must then fail")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for results, traces and temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if err := enterRoot(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		*seconds /= 50
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()
	defer runCleanups()

	fp := hostFingerprint(*seed)
	ctx := func(seed int64) *runCtx {
		return &runCtx{seed: seed, seconds: *seconds, smoke: *smoke, corrupt: *corrupt, outDir: *outDir}
	}
	fmt.Fprintf(stdout, "host: %s @ %.2f GHz, nproc %d, GOMAXPROCS %d, %s, kernel_path %s, commit %s, seed %d\n",
		fp.CPU, fp.GHz, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.KernelPath, fp.Commit, fp.Seed)

	// One workload, one kind of run: the form the acceptance procedure calls.
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		traced := *trace == 1
		decls := spec.EndToEnd
		if traced {
			decls = spec.PerLayer
		}
		c := ctx(*seed)
		out, err := runOnce(w, c, traced, fp)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		printRun(stdout, w.name, c, out, decls)
		line, err := driverLine(out, decls, !traced)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !out.Correct {
			return 1
		}
		return 0
	}

	// Every workload: the untraced runs, then the traced one, into one
	// result file.
	res := resultFile{Fingerprint: fp, RunSeconds: *seconds}
	correct := true
	for _, w := range workloads {
		wr := workloadResult{Name: w.name}
		for _, d := range spec.Workloads {
			if d.Name == w.name {
				wr.Why = d.Why
			}
		}
		if *trace != 1 {
			for r := 0; r < *runs; r++ {
				c := ctx(*seed + int64(r))
				out, err := runOnce(w, c, false, fp)
				if err != nil {
					fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
					return 1
				}
				printRun(stdout, w.name, c, out, spec.EndToEnd)
				wr.Untraced = append(wr.Untraced, *out)
				correct = correct && out.Correct
			}
		}
		if *trace != 0 {
			c := ctx(*seed)
			out, err := runOnce(w, c, true, fp)
			if err != nil {
				fmt.Fprintf(stderr, "%s (traced): %v\n", w.name, err)
				return 1
			}
			printRun(stdout, w.name+" (traced)", c, out, spec.PerLayer)
			wr.Traced = out
			correct = correct && out.Correct
		}
		wr.summarise(spec)
		res.Workloads = append(res.Workloads, wr)
	}
	path := filepath.Join(*outDir, fmt.Sprintf("result_%d.json", *seed))
	if err := res.write(path); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if !correct {
		return 1
	}
	return 0
}
