// Package benchsuite holds the benchmark harnesses shared between the
// in-repo `go test -bench` suite and `znn-bench -json`: the BENCH_<date>
// trajectory files exist specifically to track the same numbers across
// changes, so both entry points must measure one workload definition
// rather than hand-maintained copies.
package benchsuite

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"znn"
	"znn/internal/conv"
	"znn/internal/data"
	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/net"
	"znn/internal/plan"
	"znn/internal/tensor"
	"znn/internal/tile"
	"znn/internal/train"
)

// FFT3R measures one packed forward+inverse cycle at n³ at precision
// (R, C).
func FFT3R[R tensor.Real, C fft.Complex](b *testing.B, n int) {
	rng := rand.New(rand.NewSource(20))
	img := tensor.RandomUniformOf[R](rng, tensor.Cube(n), -1, 1)
	p := fft.NewPlan3ROf[R, C](img.S)
	buf := make([]C, p.PackedLen())
	out := tensor.NewOf[R](img.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(buf, img)
		p.Inverse(out, buf, 0, 0, 0)
	}
}

// Kernel times one dispatchable-kernel micro-workload from
// fft.KernelBenchCases — the per-kernel A/B (installed implementation vs
// scalar Go reference) behind the roundwise spectral speedups.
func Kernel(b *testing.B, c fft.KernelBenchCase, scalar bool) {
	b.SetBytes(c.Bytes)
	b.ResetTimer()
	if scalar {
		c.RunScalar(b.N)
	} else {
		c.Run(b.N)
	}
}

// SpectralRound96 measures one spectral training round of the 96³-class
// precision A/B: a 3D C5 layer with input extent 92 (FullConv 92+4 = 96,
// already 5-smooth, so the common transform shape is 96³), 2×2 edges with
// spectral accumulation active on both the forward and backward side.
func SpectralRound96(b *testing.B, prec conv.Precision, workers int) {
	nw, err := net.Build(net.MustParse("C5"), net.BuildOptions{
		Width: 2, InWidth: 2, OutWidth: 2, InputExtent: 92,
		Tuner:   &conv.Autotuner{Policy: conv.TuneForceFFT, Precision: prec},
		Memoize: true, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers, Eta: 1e-6, Precision: prec})
	if err != nil {
		b.Fatal(err)
	}
	defer en.Close()
	rng := rand.New(rand.NewSource(9))
	in := make([]*tensor.Tensor, 2)
	for i := range in {
		in[i] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	}
	des := make([]*tensor.Tensor, 2)
	for i := range des {
		des[i] = tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cin := make([]*tensor.Tensor, len(in))
		for j, t := range in {
			cin[j] = t.Clone()
		}
		cdes := make([]*tensor.Tensor, len(des))
		for j, t := range des {
			cdes[j] = t.Clone()
		}
		if _, err := en.Round(cin, cdes); err != nil {
			b.Fatal(err)
		}
	}
}

// inferEngine compiles the inference-benchmark network: small and narrow
// (C5-Ttanh-C3, width 2, 26³ input, forced FFT), so one round exposes far
// fewer independent tasks than there are workers.
func inferEngine(b *testing.B, workers int) (*train.Engine, *net.Network) {
	nw, err := net.Build(net.MustParse("C5-Ttanh-C3"), net.BuildOptions{
		Width: 2, InputExtent: 26,
		Tuner: &conv.Autotuner{Policy: conv.TuneForceFFT},
		Seed:  17,
	})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return en, nw
}

// InferThroughput measures forward-only inference throughput on a small,
// narrow network — the shape class where one round exposes far fewer
// independent tasks than the paper's f·f′ fan-out, so a serialized
// Forward loop leaves workers idle. inflight = 1 is the serialized
// baseline; inflight = K keeps K rounds concurrently in flight on the
// shared scheduler (the ZNNi serving regime). Reports vols/s so the
// BENCH_<date>.json trajectory records throughput directly; the
// in-flight/serialized ratio is bounded above by the machine's core
// count, exactly like the paper's speedup experiments.
func InferThroughput(b *testing.B, workers, inflight int) {
	en, nw := inferEngine(b, workers)
	defer en.Close()
	rng := rand.New(rand.NewSource(18))
	// A few distinct volumes so in-flight rounds are not byte-identical;
	// each is a K=1 batch.
	ins := make([][][]*tensor.Tensor, 4)
	for i := range ins {
		ins[i] = [][]*tensor.Tensor{{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}}
	}
	// Warm kernel spectra and pools outside the timed region.
	if _, err := en.Infer(ins[0]); err != nil {
		b.Fatal(err)
	}

	var firstErr error
	var errMu sync.Mutex
	b.ResetTimer()
	if inflight <= 1 {
		for i := 0; i < b.N; i++ {
			if _, err := en.Infer(ins[i%len(ins)]); err != nil {
				b.Fatal(err)
			}
		}
	} else {
		sem := make(chan struct{}, inflight)
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := en.Infer(ins[i%len(ins)]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}(i)
		}
		wg.Wait()
	}
	b.StopTimer()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vols/s")
}

// InferFused measures batched serving throughput on the InferThroughput
// shape class: each benchmark op dispatches the same K volumes either as
// ONE fused K-wide round (batch a first-class property of the round — one
// kernel-spectrum fetch per edge feeds K pointwise products, one inverse
// transform per (node, volume)) or as K independent K=1 rounds in flight,
// one goroutine each (the pre-fusion serving regime). Reports vols/s; like
// every speedup experiment here, the fused/independent ratio is bandwidth-
// and core-count-bound, so the win shows on ≥4-core hosts where K
// independent rounds re-stream every layer's kernel spectra K times
// through a shared cache hierarchy.
func InferFused(b *testing.B, workers, k int, fused bool) {
	en, nw := inferEngine(b, workers)
	defer en.Close()
	rng := rand.New(rand.NewSource(18))
	batch := make([][]*tensor.Tensor, k)
	for i := range batch {
		batch[i] = []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	}
	// Warm kernel spectra and pools outside the timed region.
	if _, err := en.Infer(batch); err != nil {
		b.Fatal(err)
	}
	errs := make([]error, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			if _, err := en.Infer(batch); err != nil {
				b.Fatal(err)
			}
			continue
		}
		var wg sync.WaitGroup
		for v := range batch {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				_, errs[v] = en.Infer(batch[v : v+1])
			}(v)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*k)/b.Elapsed().Seconds(), "vols/s")
}

// TrainPipeline measures whole training rounds through a StartPipeline
// session — the lag-0/lag-1 A/B behind the train-pipeline/{strict,pipelined}
// BENCH rows. Both rows run one loop on the one session path: the
// prefetcher generates sample N+1 on a background goroutine while round N
// computes, and the loop keeps `lag` rounds submitted ahead of the one it
// waits. Lag 0 (strict) waits each round before submitting the next —
// round-by-round training, Engine.Round semantics; lag 1 (pipelined) lets
// round N+1's forward work be admitted edge by edge as round N's backward
// fences release, overlapping N's backward tail and lazy update drain with
// N+1's forward head. The ratio is bounded by the machine's core count —
// on a 1-vCPU host the two rows read parity.
func TrainPipeline(b *testing.B, workers int, pipelined bool) {
	nw, err := net.Build(net.MustParse("C5-Ttanh-C3"), net.BuildOptions{
		Width: 2, InputExtent: 16,
		Tuner: &conv.Autotuner{Policy: conv.TuneForceFFT},
		Seed:  29,
	})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers, Eta: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	defer en.Close()
	pf := data.NewPrefetcher(data.NewRandomProvider(nw.InputShape(), nw.OutputShape(), 1, 30), 2)
	defer pf.Close()
	// Warm kernel spectra and pools outside the timed region.
	s := pf.Next()
	if _, err := en.Round([]*tensor.Tensor{s.Input}, []*tensor.Tensor{s.Desired[0]}); err != nil {
		b.Fatal(err)
	}
	lag := 0
	if pipelined {
		lag = 1
	}
	tp := en.StartPipeline()
	var pending []*train.PendingRound // at most lag+1 rounds, oldest first
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := pf.Next()
		pr, err := tp.Submit([]*tensor.Tensor{s.Input}, []*tensor.Tensor{s.Desired[0]})
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, pr)
		if len(pending) > lag {
			if _, err := pending[0].Wait(); err != nil {
				b.Fatal(err)
			}
			pending = pending[1:]
		}
	}
	if err := tp.Close(); err != nil { // waits the tail
		b.Fatal(err)
	}
	b.StopTimer()
}

// planNet builds the execution-planner benchmark network: C5-Ttanh-C7,
// width 4, out width 4, output extent 24 — the smallest shape class where
// the planner's per-layer choice diverges from both global forcings (the
// 5³ layer runs direct, the 7³ layer FFT at f32).
func planNet(b *testing.B) *net.Network {
	nw, err := net.Build(net.MustParse("C5-Ttanh-C7"), net.BuildOptions{
		Width: 4, OutWidth: 4, OutputExtent: 24, Seed: 23,
	})
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// PlanPeakEstimate returns the unconstrained plan's predicted pooled-peak
// bytes for the PlanBench network — the base the budgeted row's "~60%"
// budget is derived from.
func PlanPeakEstimate(workers int) (int64, error) {
	nw, err := net.Build(net.MustParse("C5-Ttanh-C7"), net.BuildOptions{
		Width: 4, OutWidth: 4, OutputExtent: 24, Seed: 23,
	})
	if err != nil {
		return 0, err
	}
	p, err := plan.Build(nw.LayerGeoms(), plan.Config{Workers: workers})
	if err != nil {
		return 0, err
	}
	return p.PeakBytes, nil
}

// PlanBench measures fused K-wide forward rounds of the planner benchmark
// network under one execution regime:
//
//	"planned"       compile from plan.Build under the given byte budget
//	"force-fft"     every layer FFT at f64 (the global TuneForceFFT regime)
//	"force-direct"  every layer direct (the global TuneForceDirect regime)
//
// Each op is one fused round over the plan's K volumes (vols/s =
// K·1e9/ns_op; a budget that degrades K shows up in the row). The Extra
// metrics record the planner's predicted pooled-spectrum peak
// ("pred_bytes") and the measured pooled peak across the timed rounds
// ("meas_bytes": Spectra + Spectra32 PeakLiveBytes after a ResetPeak) —
// the predicted-vs-measured pair the budget guarantee rests on.
func PlanBench(b *testing.B, regime string, budget int64, workers int) {
	nw := planNet(b)
	var p *plan.Plan
	var err error
	switch regime {
	case "planned":
		p, err = plan.Build(nw.LayerGeoms(), plan.Config{Budget: budget, Workers: workers})
	case "force-fft":
		p = plan.Forced(nw.LayerGeoms(), conv.FFT, conv.PrecF64, 8)
	case "force-direct":
		p = plan.Forced(nw.LayerGeoms(), conv.Direct, conv.PrecF64, 8)
	default:
		b.Fatalf("unknown plan regime %q", regime)
	}
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers, Plan: p})
	if err != nil {
		b.Fatal(err)
	}
	defer en.Close()
	en.SetTraining(false)
	rng := rand.New(rand.NewSource(24))
	batch := make([][]*tensor.Tensor, p.K)
	for i := range batch {
		batch[i] = []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	}
	// Warm kernel spectra and pools outside the timed region, then reset
	// the pool peak gauges so meas_bytes reflects only the timed rounds.
	if _, err := en.Infer(batch); err != nil {
		b.Fatal(err)
	}
	mempool.Spectra.ResetPeak()
	mempool.Spectra32.ResetPeak()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := en.Infer(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	meas := mempool.Spectra.Stats().PeakLiveBytes + mempool.Spectra32.Stats().PeakLiveBytes
	b.ReportMetric(float64(p.PeakBytes), "pred_bytes")
	b.ReportMetric(float64(meas), "meas_bytes")
	b.ReportMetric(float64(b.N*p.K)/b.Elapsed().Seconds(), "vols/s")
}

// Tile measures whole-cube streaming inference: an n³ raw f64 volume on
// disk streamed through overlap-tiled fused inference rounds (halo =
// FOV−1) and stitched back to disk — the znn-infer file path end to end.
// pipelined=false runs the naive sequential baseline (window 1: read →
// compute → stitch, one round at a time) the tile/* BENCH rows A/B against; the
// pipelined/sequential ratio is bounded by the machine's core count like
// every other speedup experiment in this repo, since the overlap hides
// I/O and stitching behind compute only when there are cores to run them
// on. FFT is forced so the pooled-spectrum gauge is non-vacuous and the
// f32 leg exercises the complex64 pipeline. Reports voxels/s (fresh
// output voxels per second), halo_waste (the recomputed input fraction at
// this block size), and meas_bytes (pooled spectrum peak across the timed
// streams).
func Tile(b *testing.B, n, blockOut int, f32, pipelined bool, workers int) {
	nw, err := znn.NewNetwork("C3-Trelu-C3", znn.Config{
		Width: 2, OutputPatch: 4, Workers: workers,
		Conv: znn.ForceFFT, Float32: f32, Seed: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()

	dir, err := os.MkdirTemp("", "znn-tile-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	vol := tensor.Cube(n)
	rng := rand.New(rand.NewSource(41))
	raw := make([]byte, 8*vol.Volume())
	for i := 0; i < vol.Volume(); i++ {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(rng.Float64()*2-1))
	}
	inPath := filepath.Join(dir, "in.raw")
	if err := os.WriteFile(inPath, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	inF, err := os.Open(inPath)
	if err != nil {
		b.Fatal(err)
	}
	defer inF.Close()
	outF, err := os.Create(filepath.Join(dir, "out.raw"))
	if err != nil {
		b.Fatal(err)
	}
	defer outF.Close()

	g, err := tile.NewGrid(vol, nw.FieldOfView(), blockOut)
	if err != nil {
		b.Fatal(err)
	}
	reader := tile.NewRawReader(inF, vol, tile.F64)
	writer := tile.NewRawWriter(outF, g.Out, tile.F64)
	opt := znn.TileOptions{BlockOut: blockOut, K: 2, Window: 2}
	if !pipelined {
		opt.Window = 1
	}

	mempool.Spectra.ResetPeak()
	mempool.Spectra32.ResetPeak()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.InferVolumeIO(reader, []tile.Writer{writer}, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	meas := mempool.Spectra.Stats().PeakLiveBytes + mempool.Spectra32.Stats().PeakLiveBytes
	b.ReportMetric(float64(meas), "meas_bytes")
	b.ReportMetric(g.HaloWaste(), "halo_waste")
	b.ReportMetric(float64(b.N*g.Out.Volume())/b.Elapsed().Seconds(), "voxels/s")
}
