// Benchmarks mirroring the paper's tables and figures, one testing.B per
// experiment (scaled to finish quickly; cmd/znn-bench runs the full
// parameter sweeps and prints the tables).
//
//	go test -bench=. -benchmem
package znn_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"znn/internal/baseline"
	"znn/internal/benchsuite"
	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/graph"
	"znn/internal/mempool"
	"znn/internal/model"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/pqueue"
	"znn/internal/sched"
	"znn/internal/tensor"
	"znn/internal/train"
	"znn/internal/wsum"
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
		ops.MaxFilterForward(img, tensor.Cube(2), ops.FilterHeap, nil)
	}
}

func BenchmarkTable1MaxFilterDeque(b *testing.B) {
	img := tensor.RandomUniform(rand.New(rand.NewSource(1)), tensor.Cube(32), -1, 1)
	for i := 0; i < b.N; i++ {
		ops.MaxFilterForward(img, tensor.Cube(2), ops.FilterDeque, nil)
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

func benchTrainingRound(b *testing.B, workers int, policy sched.Policy) {
	nw, err := net.Build(net.MustParse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu"),
		net.BuildOptions{
			Width: 4, OutWidth: 4, OutputExtent: 8,
			Tuner: &conv.Autotuner{Policy: conv.TuneForceDirect}, Seed: 3,
		})
	if err != nil {
		b.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers, Policy: policy, Eta: 1e-6})
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

func BenchmarkFig5Round1Worker(b *testing.B)  { benchTrainingRound(b, 1, sched.PolicyPriority) }
func BenchmarkFig5Round2Workers(b *testing.B) { benchTrainingRound(b, 2, sched.PolicyPriority) }

func BenchmarkFig7SerialBaseline(b *testing.B) {
	nw, err := net.Build(net.MustParse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu"),
		net.BuildOptions{
			Width: 4, OutWidth: 4, OutputExtent: 8,
			Tuner: &conv.Autotuner{Policy: conv.TuneForceDirect}, Seed: 3,
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
	tune := conv.TuneForceDirect
	memo := false
	if znnSide {
		tune = conv.TuneForceFFT
		memo = true
	}
	nw, err := net.Build(net.MustParse(spec), net.BuildOptions{
		Width: 4, OutWidth: 4, Dims: 2, OutputExtent: 2,
		Tuner: &conv.Autotuner{Policy: tune}, Memoize: memo, Seed: 5,
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
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cin := []*tensor.Tensor{in[0].Clone()}
			cdes := make([]*tensor.Tensor, len(des))
			for j, t := range des {
				cdes[j] = t.Clone()
			}
			if _, err := en.Round(cin, cdes); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	x, err := baseline.NewLayerwiseExecutor(nw, 2)
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

// --- E11: wait-free vs locked summation ---------------------------------

func benchSum(b *testing.B, waitFree bool, adders int) {
	shape := tensor.Cube(32)
	rng := rand.New(rand.NewSource(7))
	inputs := make([]*tensor.Tensor, adders)
	for i := range inputs {
		inputs[i] = tensor.RandomUniform(rng, shape, -1, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		if waitFree {
			s := wsum.New(adders)
			for j := 0; j < adders; j++ {
				wg.Add(1)
				go func(v *tensor.Tensor) {
					defer wg.Done()
					s.Add(v)
				}(inputs[j].Clone())
			}
		} else {
			s := wsum.NewLocked(adders)
			for j := 0; j < adders; j++ {
				wg.Add(1)
				go func(v *tensor.Tensor) {
					defer wg.Done()
					s.Add(v)
				}(inputs[j].Clone())
			}
		}
		wg.Wait()
	}
}

func BenchmarkWaitFreeSum8(b *testing.B)  { benchSum(b, true, 8) }
func BenchmarkLockedSum8(b *testing.B)    { benchSum(b, false, 8) }
func BenchmarkWaitFreeSum32(b *testing.B) { benchSum(b, true, 32) }
func BenchmarkLockedSum32(b *testing.B)   { benchSum(b, false, 32) }

// --- E12: heap-of-lists vs binary heap ----------------------------------

func benchQueue(b *testing.B, q pqueue.Queue, distinct int) {
	const tasks = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < tasks; j++ {
			q.Push(int64(j%distinct), j)
		}
		for j := 0; j < tasks; j++ {
			q.Pop()
		}
	}
}

func BenchmarkPQueueHeapOfListsK4(b *testing.B) { benchQueue(b, pqueue.NewHeapOfLists(), 4) }
func BenchmarkPQueueBinaryHeapK4(b *testing.B)  { benchQueue(b, pqueue.NewBinaryHeap(), 4) }
func BenchmarkPQueueHeapOfListsK1024(b *testing.B) {
	benchQueue(b, pqueue.NewHeapOfLists(), 1024)
}
func BenchmarkPQueueBinaryHeapK1024(b *testing.B) { benchQueue(b, pqueue.NewBinaryHeap(), 1024) }

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

// --- E14: scheduler strategies ------------------------------------------

func BenchmarkSchedulerPriority(b *testing.B) { benchTrainingRound(b, 2, sched.PolicyPriority) }
func BenchmarkSchedulerFIFO(b *testing.B)     { benchTrainingRound(b, 2, sched.PolicyFIFO) }
func BenchmarkSchedulerLIFO(b *testing.B)     { benchTrainingRound(b, 2, sched.PolicyLIFO) }
func BenchmarkSchedulerSteal(b *testing.B)    { benchTrainingRound(b, 2, sched.PolicySteal) }

// --- E15: memoization ----------------------------------------------------

func benchMemoization(b *testing.B, memoize bool) {
	nw, err := net.Build(net.MustParse("C5-Trelu-C5-Trelu"), net.BuildOptions{
		Width: 4, OutWidth: 4, Dims: 2, OutputExtent: 16,
		Tuner: &conv.Autotuner{Policy: conv.TuneForceFFT}, Memoize: memoize, Seed: 8,
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cin := []*tensor.Tensor{in[0].Clone()}
		cdes := make([]*tensor.Tensor, len(des))
		for j, t := range des {
			cdes[j] = t.Clone()
		}
		if _, err := en.Round(cin, cdes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoizationOff(b *testing.B) { benchMemoization(b, false) }
func BenchmarkMemoizationOn(b *testing.B)  { benchMemoization(b, true) }

// --- FFT primitives -------------------------------------------------------

// BenchmarkFFT3 vs BenchmarkFFT3R is the packed-pipeline A/B: one full
// load→forward→inverse→store cycle of a real volume at a representative
// transform shape (30³ is GoodShape of a 24³ image convolved with a 5³
// kernel). The r2c/c2r path computes and stores only the (X/2+1)·Y·Z
// Hermitian-packed coefficients.

func BenchmarkFFT3(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	img := tensor.RandomUniform(rng, tensor.Cube(30), -1, 1)
	m := img.S
	p := fft.NewPlan3(m)
	buf := make([]complex128, m.Volume())
	out := tensor.New(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.LoadReal(buf, m, img)
		p.Forward(buf)
		p.Inverse(buf)
		fft.StoreReal(out, buf, m, 0, 0, 0)
	}
}

func BenchmarkFFT3R(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	img := tensor.RandomUniform(rng, tensor.Cube(30), -1, 1)
	p := fft.NewPlan3R(img.S)
	buf := make([]complex128, p.PackedLen())
	out := tensor.New(img.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(buf, img)
		p.Inverse(out, buf, 0, 0, 0)
	}
}

// --- Spectral-mode training (packed spectra) ------------------------------

func BenchmarkSpectralRoundPacked(b *testing.B) {
	nw, err := net.Build(net.MustParse("C5-Trelu-C5-Trelu"), net.BuildOptions{
		Width: 4, OutWidth: 4, Dims: 2, OutputExtent: 16,
		Tuner: &conv.Autotuner{Policy: conv.TuneForceFFT}, Memoize: true, Seed: 8,
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cin := []*tensor.Tensor{in[0].Clone()}
		cdes := make([]*tensor.Tensor, len(des))
		for j, t := range des {
			cdes[j] = t.Clone()
		}
		if _, err := en.Round(cin, cdes); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Precision A/B: float64 vs float32 spectral path ----------------------

// BenchmarkFFT3R96 vs BenchmarkFFT3R96F32 is the per-transform precision
// A/B at the 96³ class: one packed forward+inverse cycle. In pure scalar Go
// the butterflies are compute-bound (float32 and float64 scalar multiplies
// run at the same rate), so the isolated transform is roughly precision-
// neutral; the float32 win appears at pipeline level, where spectra, image
// conversions, pool zeroing and pointwise products are bandwidth-bound —
// see BenchmarkSpectralRound96*. Harnesses live in internal/benchsuite,
// shared with `znn-bench -json` so the trajectory files measure exactly
// these workloads.

func BenchmarkFFT3R96(b *testing.B)    { benchsuite.FFT3R[float64, complex128](b, 96) }
func BenchmarkFFT3R96F32(b *testing.B) { benchsuite.FFT3R[float32, complex64](b, 96) }

func BenchmarkSpectralRound96F64(b *testing.B) { benchsuite.SpectralRound96(b, conv.PrecF64, 2) }
func BenchmarkSpectralRound96F32(b *testing.B) { benchsuite.SpectralRound96(b, conv.PrecF32, 2) }

// BenchmarkFFT3R_Odd exposes the odd-length r2c fallback cost: odd X-lines
// run a full-length complex transform and keep only the packed half, so
// they gain the memory and pointwise savings but not the X-pass flop
// halving. Each odd size is paired with its even 5-smooth neighbour so the
// gap is visible in one run (and regressions in either path are caught).
// Sizes share the benchsuite harness with `znn-bench -json`.
func BenchmarkFFT3R_Odd(b *testing.B) {
	for _, n := range []int{15, 16, 27, 30, 45, 48} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			benchsuite.FFT3R[float64, complex128](b, n)
		})
	}
}

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
	out := tensor.New(img.S.ValidConv(ker.S, tensor.Dense()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.ValidDirectInto(out, img, ker, tensor.Dense())
	}
}
