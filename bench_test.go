// Benchmarks mirroring the paper's tables and figures, one testing.B per
// experiment (scaled to finish quickly; cmd/znn-bench runs the full
// parameter sweeps and prints the tables), followed by the within-run A/B
// pairs between execution paths the public API offers side by side.
//
//	go test -run '^$' -bench=. -benchmem
package znn_test

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	"znn/internal/graph"
	"znn/internal/mempool"
	"znn/internal/model"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
	"znn/internal/tile"
	"znn/internal/train"
)

// --- Table I: nonlinear layer primitives --------------------------------

func BenchmarkTable1MaxPool(b *testing.B) {
	img := tensor.RandomUniform(rand.New(rand.NewSource(1)), tensor.Cube(32), -1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ops.MaxPoolForward(img, tensor.Cube(2))
	}
}

func BenchmarkTable1MaxFilterHeap(b *testing.B) {
	img := tensor.RandomUniform(rand.New(rand.NewSource(1)), tensor.Cube(32), -1, 1)
	for i := 0; i < b.N; i++ {
		ops.MaxFilterForward(img, tensor.Cube(2), tensor.Dense(), ops.FilterHeap, nil)
	}
}

func BenchmarkTable1MaxFilterDeque(b *testing.B) {
	img := tensor.RandomUniform(rand.New(rand.NewSource(1)), tensor.Cube(32), -1, 1)
	for i := 0; i < b.N; i++ {
		ops.MaxFilterForward(img, tensor.Cube(2), tensor.Dense(), ops.FilterDeque, nil)
	}
}

func BenchmarkTable1Transfer(b *testing.B) {
	img := tensor.RandomUniform(rand.New(rand.NewSource(1)), tensor.Cube(32), -1, 1)
	for i := 0; i < b.N; i++ {
		ops.TransferForward(ops.ReLU{}, img, 0.1)
	}
}

// --- Table II: direct vs FFT vs memoized convolution --------------------

func benchConvPhases(b *testing.B, method conv.Method, memoize bool) {
	rng := rand.New(rand.NewSource(2))
	img := tensor.RandomUniform(rng, tensor.Cube(20), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(5), -0.5, 0.5)
	bwd := tensor.RandomUniform(rng, tensor.Cube(16), -1, 1)
	tr := conv.NewTransformer(img.S, ker.S, tensor.Dense(), method, memoize, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(img, ker, nil)
		tr.Backward(bwd, ker, nil)
		tr.KernelGrad(img, bwd)
		tr.InvalidateKernel()
	}
}

func BenchmarkTable2Direct(b *testing.B)  { benchConvPhases(b, conv.Direct, false) }
func BenchmarkTable2FFT(b *testing.B)     { benchConvPhases(b, conv.FFT, false) }
func BenchmarkTable2FFTMemo(b *testing.B) { benchConvPhases(b, conv.FFT, true) }

// --- Fig. 4: analytic speedup curves ------------------------------------

func BenchmarkFig4Curves(b *testing.B) {
	widths := []int{1, 5, 10, 20, 40, 80, 120}
	for i := 0; i < b.N; i++ {
		for _, p := range []int{8, 18, 40, 60, 120} {
			model.Fig4Curve(model.FFTMemo, p, 8, widths)
		}
	}
}

// --- Fig. 5–7: parallel training rounds (speedup numerator/denominator) --

// benchRounds times whole training rounds on en, each on fresh copies of
// in and des.
func benchRounds(b *testing.B, en *train.Engine, in, des []*tensor.Tensor) {
	clone := func(ts []*tensor.Tensor) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(ts))
		for i, t := range ts {
			out[i] = t.Clone()
		}
		return out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := en.Round(clone(in), clone(des)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTrainingRound(b *testing.B, workers int) {
	nw, err := net.Build(net.MustParse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu"),
		net.BuildOptions{
			Width: 4, OutWidth: 4, OutputExtent: 8,
			Method: conv.Direct, Seed: 3,
		})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers, Eta: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	defer en.Close()
	rng := rand.New(rand.NewSource(4))
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	des := make([]*tensor.Tensor, 4)
	for i := range des {
		des[i] = tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	}
	benchRounds(b, en, in, des)
}

func BenchmarkFig5Round1Worker(b *testing.B)  { benchTrainingRound(b, 1) }
func BenchmarkFig5Round2Workers(b *testing.B) { benchTrainingRound(b, 2) }

func BenchmarkFig7SerialBaseline(b *testing.B) {
	nw, err := net.Build(net.MustParse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu"),
		net.BuildOptions{
			Width: 4, OutWidth: 4, OutputExtent: 8,
			Method: conv.Direct, Seed: 3,
		})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	des := make([]*tensor.Tensor, 4)
	for i := range des {
		des[i] = tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	}
	opt := graph.UpdateOpts{Eta: 1e-6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.RoundSerial(in, des, ops.SquaredLoss{}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 8/9: ZNN vs layerwise-direct baseline -------------------------

func benchGPUComparison(b *testing.B, znnSide bool, kernel int) {
	spec := fmt.Sprintf("C%d-Trelu-P2-C%d-Trelu-C%d-Trelu", kernel, kernel, kernel)
	method := conv.Direct
	memo := false
	if znnSide {
		method = conv.FFT
		memo = true
	}
	nw, err := net.Build(net.MustParse(spec), net.BuildOptions{
		Width: 4, OutWidth: 4, Dims: 2, OutputExtent: 2,
		Method: method, Memoize: memo, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	des := make([]*tensor.Tensor, 4)
	for i := range des {
		des[i] = tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	}
	opt := graph.UpdateOpts{Eta: 1e-6}
	if znnSide {
		en, err := train.NewEngine(nw.G, train.Config{Workers: 2, Eta: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		defer en.Close()
		benchRounds(b, en, in, des)
		return
	}
	x, err := net.NewLayerwiseExecutor(nw, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Round(in, des, ops.SquaredLoss{}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8ZNNKernel6(b *testing.B)       { benchGPUComparison(b, true, 6) }
func BenchmarkFig8BaselineKernel6(b *testing.B)  { benchGPUComparison(b, false, 6) }
func BenchmarkFig8ZNNKernel12(b *testing.B)      { benchGPUComparison(b, true, 12) }
func BenchmarkFig8BaselineKernel12(b *testing.B) { benchGPUComparison(b, false, 12) }

// Wait-free vs locked summation (E11) and heap-of-lists vs binary heap
// (E12) are benchmarked in internal/wsum and internal/pqueue, beside the
// comparators they time.

// --- E13: pooled allocation ---------------------------------------------

func BenchmarkMempoolGetPut(b *testing.B) {
	var p mempool.Float64Pool
	p.Put(p.Get(1 << 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := p.Get(1 << 16)
		buf[0] = 1
		p.Put(buf)
	}
}

func BenchmarkMakeBaseline(b *testing.B) {
	var sink []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := make([]float64, 1<<16)
		buf[0] = 1
		sink = buf
	}
	_ = sink
}

// --- E15: memoization ----------------------------------------------------

func benchMemoization(b *testing.B, memoize bool) {
	nw, err := net.Build(net.MustParse("C5-Trelu-C5-Trelu"), net.BuildOptions{
		Width: 4, OutWidth: 4, Dims: 2, OutputExtent: 16,
		Method: conv.FFT, Memoize: memoize, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: 2, Eta: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	defer en.Close()
	rng := rand.New(rand.NewSource(9))
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	des := make([]*tensor.Tensor, 4)
	for i := range des {
		des[i] = tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	}
	benchRounds(b, en, in, des)
}

func BenchmarkMemoizationOff(b *testing.B) { benchMemoization(b, false) }
func BenchmarkMemoizationOn(b *testing.B)  { benchMemoization(b, true) }

// --- Spectral-mode training (packed spectra) ------------------------------

// The memoizing forced-FFT round of E15 is also the packed spectral-mode
// round (spectral sums on both passes).
func BenchmarkSpectralRoundPacked(b *testing.B) { benchMemoization(b, true) }

// --- Precision A/B: float64 vs float32 spectral path ----------------------

// BenchmarkFFT3R96 vs BenchmarkFFT3R96F32 is the per-transform precision
// A/B at the 96³ class: one packed forward+inverse cycle. In pure scalar Go
// the butterflies are compute-bound (float32 and float64 scalar multiplies
// run at the same rate), so the isolated transform is roughly precision-
// neutral; the float32 win appears at pipeline level, where spectra, image
// conversions, pool zeroing and pointwise products are bandwidth-bound —
// see BenchmarkSpectralRound96*.

// benchFFT3R measures one packed forward+inverse cycle at n³ at precision
// (R, C).
func benchFFT3R[R tensor.Real, C fft.Complex](b *testing.B, n int) {
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

func BenchmarkFFT3R96(b *testing.B)    { benchFFT3R[float64, complex128](b, 96) }
func BenchmarkFFT3R96F32(b *testing.B) { benchFFT3R[float32, complex64](b, 96) }

// benchSpectralRound96 measures one spectral training round at the 96³
// class: a 3D C5 layer with input extent 92 (FullConv 92+4 = 96, already
// 5-smooth, so the common transform shape is 96³), 2×2 edges with spectral
// accumulation active on both the forward and backward side.
func benchSpectralRound96(b *testing.B, prec conv.Precision) {
	nw, err := net.Build(net.MustParse("C5"), net.BuildOptions{
		Width: 2, InWidth: 2, OutWidth: 2, InputExtent: 92,
		Method:  conv.FFT,
		Memoize: true, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: 2, Eta: 1e-6, Precision: prec})
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
	benchRounds(b, en, in, des)
}

func BenchmarkSpectralRound96F64(b *testing.B) { benchSpectralRound96(b, conv.PrecF64) }
func BenchmarkSpectralRound96F32(b *testing.B) { benchSpectralRound96(b, conv.PrecF32) }

func BenchmarkFFTConvValid(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	img := tensor.RandomUniform(rng, tensor.Cube(24), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(5), -0.5, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.ValidFFT(img, ker, tensor.Dense())
	}
}

func BenchmarkDirectConvValid(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	img := tensor.RandomUniform(rng, tensor.Cube(24), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(5), -0.5, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.ValidDirect(img, ker, tensor.Dense())
	}
}

// --- Within-run A/Bs between paths the public API offers side by side -----
//
// Each benchmark builds its networks and inputs once and times the sides as
// sub-benchmarks in one process on one host; the ratio between sides is the
// result, the absolute numbers are not.

// abSide is one side of an A/B: op runs one timed operation.
type abSide struct {
	name string
	op   func() error
}

// benchSides times each side after one untimed warm-up op (kernel spectra,
// transform plans and pools are then hot) and reports throughput in unit,
// where one op produces work units.
func benchSides(b *testing.B, unit string, work int, sides ...abSide) {
	for _, s := range sides {
		b.Run(s.name, func(b *testing.B) {
			if err := s.op(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*work)/b.Elapsed().Seconds(), unit)
		})
	}
}

// abNetwork builds a network that is closed when the benchmark ends.
func abNetwork(b *testing.B, spec string, cfg znn.Config) *znn.Network {
	b.Helper()
	nw, err := znn.NewNetwork(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nw.Close() })
	return nw
}

// abBatch draws k single-input volumes for nw.
func abBatch(nw *znn.Network, seed int64, k int) [][]*znn.Tensor {
	rng := rand.New(rand.NewSource(seed))
	batch := make([][]*znn.Tensor, k)
	for i := range batch {
		batch[i] = []*znn.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	}
	return batch
}

// BenchmarkTrainLag: a TrainStart session of 8 rounds waited with lag 0
// (each round before the next is submitted — what Train does) vs lag 1 (one
// round submitted ahead, so round N's backward tail and update drain
// overlap round N+1's forward head).
func BenchmarkTrainLag(b *testing.B) {
	const rounds = 8
	nw := abNetwork(b, "C5-Ttanh-C3", znn.Config{Width: 2, InputPatch: 16, Conv: znn.ForceFFT, Eta: 1e-4, Seed: 29})
	rng := rand.New(rand.NewSource(30))
	in := []*znn.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	des := []*znn.Tensor{tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)}
	session := func(lag int) func() error {
		return func() error {
			tp := nw.TrainStart()
			var pending []*znn.PendingRound // at most lag+1 rounds, oldest first
			for i := 0; i < rounds; i++ {
				pr, err := tp.Submit(in, des)
				if err != nil {
					tp.Close()
					return err
				}
				pending = append(pending, pr)
				if len(pending) > lag {
					if _, err := pending[0].Wait(); err != nil {
						tp.Close()
						return err
					}
					pending = pending[1:]
				}
			}
			return tp.Close() // waits the tail
		}
	}
	benchSides(b, "rounds/s", rounds,
		abSide{"Lag0", session(0)},
		abSide{"Lag1", session(1)},
	)
}

// BenchmarkTileWindow: a 64³ volume streamed through overlap-tiled fused
// rounds with one round in flight (read → compute → stitch in turn) vs two
// (reads and stitches hide behind compute).
func BenchmarkTileWindow(b *testing.B) {
	nw := abNetwork(b, "C3-Trelu-C3", znn.Config{Width: 2, OutputPatch: 4, Conv: znn.ForceFFT, Seed: 40})
	vol := tensor.RandomUniform(rand.New(rand.NewSource(41)), znn.Cube(64), -1, 1)
	voxels := znn.Cube(64 - nw.FieldOfView() + 1).Volume()
	stream := func(window int) func() error {
		return func() error {
			_, _, err := nw.InferVolume(vol, znn.TileOptions{BlockOut: 16, K: 2, Window: window})
			return err
		}
	}
	benchSides(b, "voxels/s", voxels,
		abSide{"Window1", stream(1)},
		abSide{"Window2", stream(2)},
	)
}

// BenchmarkPlanRegimes: the same 8 volumes through a mixed-method net
// (C5-Ttanh-C7: the planner runs the 5³ layer direct and the 7³ layer FFT)
// compiled from the execution planner vs both global forcings, each side
// running the volumes as 8 concurrent Infer calls.
func BenchmarkPlanRegimes(b *testing.B) {
	const vols = 8
	cfg := znn.Config{Width: 4, OutWidth: 4, OutputPatch: 24, Seed: 23}
	regime := func(name string, mod func(*znn.Config)) abSide {
		c := cfg
		mod(&c)
		nw := abNetwork(b, "C5-Ttanh-C7", c)
		batch := abBatch(nw, 24, vols)
		return abSide{name, func() error {
			errs := make([]error, len(batch))
			var wg sync.WaitGroup
			for v := range batch {
				wg.Add(1)
				go func(v int) {
					defer wg.Done()
					_, errs[v] = nw.Infer(batch[v]...)
				}(v)
			}
			wg.Wait()
			return errors.Join(errs...)
		}}
	}
	benchSides(b, "vols/s", vols,
		regime("Planned", func(c *znn.Config) { c.Planned = true }),
		regime("ForceFFT", func(c *znn.Config) { c.Conv = znn.ForceFFT }),
		regime("ForceDirect", func(c *znn.Config) { c.Conv = znn.ForceDirect }),
	)
}

// --- Profile mirrors of the benchmark's FFT workloads ---------------------
//
// benchmark/ has no profile flag, so these two run its FFT workloads'
// networks, shapes and modes through the public API under go test, where
// -cpuprofile works (BenchmarkWorkloadTrainAnisoAuto, in workload_test.go,
// mirrors train_aniso_auto the same way):
//
//	go test -run '^$' -bench WorkloadTrainFFT7 -benchtime 20x -cpuprofile cpu.out .
//	go tool pprof -top cpu.out

// BenchmarkWorkloadTrainFFT7 mirrors train_fft7: strict training of three
// 7³ layers, width 8, a 12³ output patch, forced FFT with memoized spectra,
// two workers. One op is one update.
func BenchmarkWorkloadTrainFFT7(b *testing.B) {
	const out = 12
	nw := abNetwork(b, "C7-Trelu-C7-Trelu-C7-Tlogistic", znn.Config{
		Width: 8, OutputPatch: out, Conv: znn.ForceFFT, Memoize: true,
		Workers: 2, Seed: 1, Eta: 1e-4,
	})
	p := data.NewBoundaryProvider(nw.InputShape(), znn.Cube(out), 1)
	p.SetCentered(true)
	samples := make([]data.Sample, 4)
	for i := range samples {
		samples[i] = p.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		if _, err := nw.Train(s.Input, s.Desired[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadInferCubeF32 mirrors infer_cube_f32: a 106³ float32 cube
// streamed raw file to raw file through tiled inference of
// C5-Trelu-C5-Trelu-C3-Ttanh, width 4, planned under a 64 MB budget, two
// workers. One op is one whole-cube pass.
func BenchmarkWorkloadInferCubeF32(b *testing.B) {
	vol := znn.Cube(106)
	nw := abNetwork(b, "C5-Trelu-C5-Trelu-C3-Ttanh", znn.Config{
		Width: 4, OutputPatch: 16, Planned: true, Float32: true,
		MemBudget: 64 << 20, Workers: 2, Seed: 1,
	})
	outShape := znn.Cube(vol.X - nw.FieldOfView() + 1)
	dir := b.TempDir()
	inPath, outPath := filepath.Join(dir, "in.f32"), filepath.Join(dir, "out.f32")
	raw := make([]byte, 4*vol.Volume())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(raw); i += 4 {
		binary.LittleEndian.PutUint32(raw[i:], math.Float32bits(float32(rng.Float64()*2-1)))
	}
	if err := os.WriteFile(inPath, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	pass := func() error {
		in, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		_, err = nw.InferVolumeIO(tile.NewRawReader(in, vol, tile.F32),
			[]tile.Writer{tile.NewRawWriter(out, outShape, tile.F32)}, znn.TileOptions{})
		return errors.Join(err, out.Close())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pass(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(outShape.Volume())*float64(b.N)/b.Elapsed().Seconds(), "voxels/s")
}
