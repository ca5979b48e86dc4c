package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"znn/internal/benchsuite"
	"znn/internal/conv"
	"znn/internal/fft"
)

// benchRecord is one row of the machine-readable benchmark output. Arch
// and Features pin each row to the instruction set it actually ran
// ("avx2", "scalar", or "purego" — see fft.KernelPath), so trajectory
// diffs across hosts and across the vector/scalar A/B rows stay
// interpretable.
type benchRecord struct {
	Name      string  `json:"name"`
	Shape     string  `json:"shape"`
	NsOp      int64   `json:"ns_op"`
	BytesOp   int64   `json:"bytes_op"`                       // allocated bytes per op
	Workers   int     `json:"workers,omitempty"`              // scheduler workers, when the row uses them
	P99Ns     int64   `json:"p99_ns,omitempty"`               // tail latency, loadgen rows (ns_op is p50)
	ShedRate  float64 `json:"shed_rate,omitempty"`            // fraction of requests shed 429, loadgen rows
	PredBytes int64   `json:"predicted_peak_bytes,omitempty"` // planner's pooled-peak estimate, plan/* rows
	MeasBytes int64   `json:"measured_peak_bytes,omitempty"`  // measured pooled peak, plan/* and tile/* rows
	VoxPerSec float64 `json:"voxels_per_s,omitempty"`         // fresh output voxels per second, tile/* rows
	HaloWaste float64 `json:"halo_waste,omitempty"`           // recomputed input fraction at the row's block size, tile/* rows
	Arch      string  `json:"goarch"`
	Features  string  `json:"features"`
}

// benchFile is the BENCH_<date>.json schema: metadata plus one record per
// benchmark, so the perf trajectory is diffable across PRs instead of
// living only in commit messages.
type benchFile struct {
	Date    string        `json:"date"`
	Go      string        `json:"go"`
	CPU     string        `json:"cpu,omitempty"`
	Results []benchRecord `json:"results"`
}

// jsonBenchmarks runs the curated core suite — the packed transform at
// small/large and odd/even shapes, both precisions, and the spectral
// training round A/B — and writes BENCH_<date>.json in the current
// directory. When cfg.rows is non-empty only rows whose name starts with
// that prefix run; the results merge into an existing same-day file
// instead of replacing it, so partial reruns are additive.
func jsonBenchmarks(cfg config) {
	header("machine-readable core benchmarks")
	out := benchFile{
		Date: time.Now().Format("2006-01-02"),
		Go:   runtime.Version(),
		CPU:  cpuModel(),
	}
	// Each row is the median ns/op of three testing.Benchmark runs: the
	// slow rows (~1 s/op) otherwise reduce to a single iteration, and a
	// single sample on a shared host is too noisy for a trajectory meant
	// to be diffed across PRs.
	add := func(name, shape string, workers int, fn func(b *testing.B)) {
		if cfg.rows != "" && !strings.HasPrefix(name, cfg.rows) {
			return
		}
		const runs = 3
		ns := make([]int64, 0, runs)
		bs := make([]int64, 0, runs)
		vox := make([]float64, 0, runs)
		var pred, meas int64
		var halo float64
		for i := 0; i < runs; i++ {
			r := testing.Benchmark(fn)
			ns = append(ns, r.NsPerOp())
			bs = append(bs, r.AllocedBytesPerOp())
			// plan/* and tile/* rows report the planner's byte estimate and
			// the measured pooled peak as Extra metrics; the peak keeps its
			// worst observation across the three runs.
			if v, ok := r.Extra["pred_bytes"]; ok {
				pred = int64(v)
			}
			if v, ok := r.Extra["meas_bytes"]; ok && int64(v) > meas {
				meas = int64(v)
			}
			// tile/* rows: throughput takes the median like ns_op; the halo
			// fraction is a geometric constant of the row.
			if v, ok := r.Extra["voxels/s"]; ok {
				vox = append(vox, v)
			}
			if v, ok := r.Extra["halo_waste"]; ok {
				halo = v
			}
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		sort.Slice(bs, func(a, b int) bool { return bs[a] < bs[b] })
		sort.Float64s(vox)
		var voxMed float64
		if len(vox) > 0 {
			voxMed = vox[len(vox)/2]
		}
		rec := benchRecord{
			Name:      name,
			Shape:     shape,
			NsOp:      ns[runs/2],
			BytesOp:   bs[runs/2],
			Workers:   workers,
			PredBytes: pred,
			MeasBytes: meas,
			VoxPerSec: voxMed,
			HaloWaste: halo,
			Arch:      runtime.GOARCH,
			Features:  fft.KernelPath(),
		}
		out.Results = append(out.Results, rec)
		fmt.Printf("%-28s %-12s %12d ns/op %10d B/op\n", rec.Name, rec.Shape, rec.NsOp, rec.BytesOp)
	}

	for _, n := range []int{15, 16, 27, 30, 45, 48, 96} {
		n := n
		add("fft3r/f64", fmt.Sprintf("%dx%dx%d", n, n, n), 0, func(b *testing.B) {
			benchsuite.FFT3R[float64, complex128](b, n)
		})
	}
	add("fft3r/f32", "96x96x96", 0, func(b *testing.B) {
		benchsuite.FFT3R[float32, complex64](b, 96)
	})
	add("spectral-round/f64", "96x96x96", cfg.workers, func(b *testing.B) {
		benchsuite.SpectralRound96(b, conv.PrecF64, cfg.workers)
	})
	add("spectral-round/f32", "96x96x96", cfg.workers, func(b *testing.B) {
		benchsuite.SpectralRound96(b, conv.PrecF32, cfg.workers)
	})

	// Vector-kernel A/B for the f32 round: the same workload with the
	// scalar kernel set force-installed, so the roundwise speedup of the
	// lane-batched/AVX2 path is a first-class trajectory number rather
	// than a one-off measurement. Restored before any later rows run.
	if fft.SetVectorKernels(false) {
		add("spectral-round/f32-scalar", "96x96x96", cfg.workers, func(b *testing.B) {
			benchsuite.SpectralRound96(b, conv.PrecF32, cfg.workers)
		})
		fft.SetVectorKernels(true)
	}

	// Per-kernel microbenchmarks: the dispatched implementation next to
	// its scalar reference (same workloads as the in-repo Benchmark*
	// functions in internal/fft).
	for _, c := range fft.KernelBenchCases() {
		c := c
		add("kernels/"+c.Name, "", 0, func(b *testing.B) {
			benchsuite.Kernel(b, c, false)
		})
		fft.SetVectorKernels(false)
		add("kernels/"+c.Name+"-scalar", "", 0, func(b *testing.B) {
			benchsuite.Kernel(b, c, true)
		})
		fft.SetVectorKernels(true)
	}

	// Inference serving A/B: serialized Forward loop vs 8 rounds in
	// flight at the same worker count (≥4, the acceptance shape — the
	// per-row workers field records it, since it may differ from the
	// other rows' cfg.workers on narrow hosts). vols/s = 1e9 / ns_op;
	// the in-flight/serialized ratio is bounded by the machine's core
	// count.
	inferWorkers := cfg.workers
	if inferWorkers < 4 {
		inferWorkers = 4
	}
	add("infer-throughput/serial", "26x26x26", inferWorkers, func(b *testing.B) {
		benchsuite.InferThroughput(b, inferWorkers, 1)
	})
	add("infer-throughput/inflight8", "26x26x26", inferWorkers, func(b *testing.B) {
		benchsuite.InferThroughput(b, inferWorkers, 8)
	})

	// Batched serving A/B: 8 volumes per dispatch, fused into one K-wide
	// round vs 8 independent K=1 rounds in flight (8 goroutines × Infer). ns_op is per dispatch of 8
	// volumes (vols/s = 8e9 / ns_op); the fused/independent ratio needs a
	// ≥4-core host to show the cache-streaming win.
	add("infer-fused/independent8", "26x26x26", inferWorkers, func(b *testing.B) {
		benchsuite.InferFused(b, inferWorkers, 8, false)
	})
	add("infer-fused/fused8", "26x26x26", inferWorkers, func(b *testing.B) {
		benchsuite.InferFused(b, inferWorkers, 8, true)
	})

	// Pipelined-training A/B on the one training-session path: lag 0
	// (strict: each round waited before the next is submitted) vs lag 1
	// (pipelined: one round submitted ahead, per-edge update fencing),
	// prefetched data and the same worker count in both rows. ns_op is one whole training round; like the other speedup
	// rows the ratio is bounded by the machine's core count, so a 1-vCPU
	// host records parity and the ≥1.15× acceptance shape needs ≥4 cores.
	add("train-pipeline/strict", "16x16x16", inferWorkers, func(b *testing.B) {
		benchsuite.TrainPipeline(b, inferWorkers, false)
	})
	add("train-pipeline/pipelined", "16x16x16", inferWorkers, func(b *testing.B) {
		benchsuite.TrainPipeline(b, inferWorkers, true)
	})

	// Execution-planner A/B on the mixed-method benchmark net (direct 5³
	// layer + FFT 7³ layer): the planned network against both global
	// forcings, each row one fused round (ns_op is per round; vols/s =
	// K·1e9/ns_op with K in the row's plan). predicted/measured_peak_bytes
	// record the planner's byte estimate next to the pools' observed peak;
	// plan/budget60 replans under ~60% of the unconstrained estimate and
	// must keep the measured peak under that budget.
	planWorkers := cfg.workers
	add("plan/planned", "34x34x34", planWorkers, func(b *testing.B) {
		benchsuite.PlanBench(b, "planned", 0, planWorkers)
	})
	add("plan/force-fft", "34x34x34", planWorkers, func(b *testing.B) {
		benchsuite.PlanBench(b, "force-fft", 0, planWorkers)
	})
	add("plan/force-direct", "34x34x34", planWorkers, func(b *testing.B) {
		benchsuite.PlanBench(b, "force-direct", 0, planWorkers)
	})
	if peak, err := benchsuite.PlanPeakEstimate(planWorkers); err == nil {
		budget := peak * 6 / 10
		add("plan/budget60", "34x34x34", planWorkers, func(b *testing.B) {
			benchsuite.PlanBench(b, "planned", budget, planWorkers)
		})
	}

	// Tiled whole-cube streaming: one 128³ raw volume on disk streamed
	// through overlap-tiled fused rounds and stitched back to disk (the
	// znn-infer file path). ns_op is one whole-cube stream; each row records
	// voxels_per_s (fresh output voxels), halo_waste at its block size, and
	// the measured pooled-spectrum peak. tile/seq is the naive sequential
	// baseline (window 1) the pipelined row (window 2) must beat on ≥4-core
	// hosts (core-count-bound, like every other speedup row); the block-16
	// and f32 rows sweep the (block size × precision) grid.
	tileWorkers := inferWorkers
	add("tile/seq/f64-b32", "128x128x128", tileWorkers, func(b *testing.B) {
		benchsuite.Tile(b, 128, 32, false, false, tileWorkers)
	})
	add("tile/pipe/f64-b32", "128x128x128", tileWorkers, func(b *testing.B) {
		benchsuite.Tile(b, 128, 32, false, true, tileWorkers)
	})
	add("tile/pipe/f64-b16", "128x128x128", tileWorkers, func(b *testing.B) {
		benchsuite.Tile(b, 128, 16, false, true, tileWorkers)
	})
	add("tile/pipe/f32-b32", "128x128x128", tileWorkers, func(b *testing.B) {
		benchsuite.Tile(b, 128, 32, true, true, tileWorkers)
	})

	name := fmt.Sprintf("BENCH_%s.json", out.Date)
	// Merge into an existing same-day file instead of clobbering it: a rerun
	// that produced only a subset of rows (a -rows filter, or an older binary
	// that lacks today's newest rows) used to silently drop every row it
	// didn't regenerate from the trajectory file.
	if prev, err := os.ReadFile(name); err == nil {
		var old benchFile
		if err := json.Unmarshal(prev, &old); err != nil {
			fmt.Fprintf(os.Stderr, "existing %s is unreadable (%v); refusing to merge over it\n", name, err)
			os.Exit(1)
		}
		out.Results = mergeResults(old.Results, out.Results)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(name, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d results)\n", name, len(out.Results))
}

// mergeResults overlays fresh rows onto a previous same-day result set.
// The row key is (name, shape) — the fft3r family reuses one name across
// its shape sweep — and a rerun row replaces the old one in place (file
// order stays stable, so the JSON diffs cleanly), rows the rerun didn't
// produce survive untouched, and brand-new rows append in their run order.
func mergeResults(old, fresh []benchRecord) []benchRecord {
	key := func(r benchRecord) string { return r.Name + "|" + r.Shape }
	merged := append([]benchRecord(nil), old...)
	idx := make(map[string]int, len(merged))
	for i, r := range merged {
		idx[key(r)] = i
	}
	for _, r := range fresh {
		if i, ok := idx[key(r)]; ok {
			merged[i] = r
		} else {
			idx[key(r)] = len(merged)
			merged = append(merged, r)
		}
	}
	return merged
}
