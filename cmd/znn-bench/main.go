// znn-bench regenerates the paper's tables and figures from what this host
// measures (each experiment id below names the table or figure it
// reproduces) and doubles as the load generator for a running znn-serve.
// A/B comparisons between two implementations of one mechanism
// (memoization, wait-free summation, pooled allocation, the heap-of-lists)
// are `go test -bench` benchmarks beside the code they time.
//
// Usage:
//
//	znn-bench -exp all                 # everything, scaled to this machine
//	znn-bench -exp fig7 -workers 4     # one experiment
//	znn-bench -exp fig8 -paper-scale   # the paper's exact parameters
//
// Experiments: tablev table1 table2 table34 fig4 fig5 fig6 fig7 fig8 fig9 all.
//
// Load-generator mode drives a RUNNING znn-serve instead of in-process
// benchmarks: concurrent clients hammer /infer for -duration, optionally
// POSTing /reload every -reload-every, and the run's p50/p99 latency and
// shed rate are printed and written to the -loadgen-out summary JSON that
// CI asserts on:
//
//	znn-bench -loadgen http://localhost:8080 -duration 10s -clients 16 \
//	          [-deadline-ms 500] [-reload-every 2s] [-loadgen-out sum.json]
//
// It stays beside benchmark/serve.go because the two answer different
// questions: -loadgen drives reloads and deadlines for CI's chaos
// assertions, while benchmark/serve.go is the frozen latency yardstick.
//
// Measured speedups are bounded by this machine's core count; the paper's
// 8–120 CPU curves are regenerated analytically by fig4 and the measured
// experiments take -workers so wider hosts reproduce the full sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

type config struct {
	workers    int
	paperScale bool
	rounds     int // timed rounds per measurement
	warmup     int
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc)")
	workers := flag.Int("workers", 0, "max worker threads for measured experiments (0 = all CPUs)")
	paperScale := flag.Bool("paper-scale", false, "use the paper's full network sizes (slow)")
	rounds := flag.Int("rounds", 0, "timed rounds per point (0 = default per experiment)")
	loadgenAddr := flag.String("loadgen", "", "drive a running znn-serve at this base URL instead of in-process benchmarks")
	duration := flag.Duration("duration", 10*time.Second, "loadgen run length")
	clients := flag.Int("clients", 2*runtime.NumCPU(), "loadgen concurrent request loops")
	deadlineMs := flag.Float64("deadline-ms", 0, "loadgen X-Deadline-Ms per request (0 = none)")
	reloadEvery := flag.Duration("reload-every", 0, "loadgen POST /reload period (0 = never)")
	loadgenOut := flag.String("loadgen-out", "", "loadgen summary JSON path (counters for CI assertions)")
	flag.Parse()

	if *workers < 1 {
		*workers = runtime.NumCPU()
	}
	cfg := config{workers: *workers, paperScale: *paperScale, rounds: *rounds, warmup: 2}

	if *loadgenAddr != "" {
		if err := loadgen(loadgenConfig{
			addr:        strings.TrimRight(*loadgenAddr, "/"),
			duration:    *duration,
			clients:     *clients,
			deadlineMs:  *deadlineMs,
			reloadEvery: *reloadEvery,
			out:         *loadgenOut,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, e := range exps {
		e.run(cfg)
		if len(exps) > 1 {
			fmt.Println()
		}
	}
}

// experiment is one -exp id and the function that prints it.
type experiment struct {
	id  string
	run func(config)
}

// experiments lists every -exp id in the order -exp all runs them.
var experiments = []experiment{
	{"tablev", tableV},
	{"table1", table1},
	{"table2", table2},
	{"table34", table34},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
}

// selectExperiments resolves an -exp value: "all" or one id.
func selectExperiments(id string) ([]experiment, error) {
	if id == "all" {
		return experiments, nil
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		if e.id == id {
			return []experiment{e}, nil
		}
		ids[i] = e.id
	}
	return nil, fmt.Errorf("unknown experiment %q; known: %s all", id, strings.Join(ids, " "))
}

// header prints a boxed experiment title.
func header(title string) {
	line := strings.Repeat("=", len(title)+4)
	fmt.Printf("%s\n= %s =\n%s\n", line, title, line)
}

// tableV prints the machine inventory (the stand-in for the paper's
// Table V, which lists the authors' four Xeon/Xeon Phi systems).
func tableV(cfg config) {
	header("Table V — machine used for the measured experiments")
	fmt.Printf("logical CPUs:  %d\n", runtime.NumCPU())
	fmt.Printf("GOMAXPROCS:    %d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("go version:    %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if model := cpuModel(); model != "" {
		fmt.Printf("cpu model:     %s\n", model)
	}
	fmt.Printf("\npaper's machines: Xeon E5-2666v3 (8c/16t), E5-2666v3 (18c/36t),\n")
	fmt.Printf("E7-4850 (40c/80t), Xeon Phi 5110P (60c/240t). Measured speedups\n")
	fmt.Printf("on this host saturate at ~%d; pass -workers on a wider machine.\n", runtime.NumCPU())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}
