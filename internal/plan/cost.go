package plan

import (
	"math"

	"znn/internal/conv"
	"znn/internal/fft"
)

// f32FFTCostFactor discounts the modeled FFT cost when the spectral path
// runs in float32. The flop count is unchanged and an isolated transform
// is nearly precision-neutral (scalar butterflies are compute-bound), but
// the quantity the planner predicts is per-round layer cost, and measured
// spectral training rounds — where spectrum traffic, pool zeroing and
// allocation volume halve — run ≈1.78× faster at f32 at 96³-class shapes
// (see BenchmarkSpectralRound96*). The factor is the inverse of that
// measured end-to-end ratio, applied to the whole spectral term as a
// bandwidth proxy; it shifts the direct-vs-FFT crossover toward FFT.
const f32FFTCostFactor = 0.56

// taps returns the number of kernel taps Direct's forward and backward
// passes run per output voxel: max(density·|k|, 1), where a density of 0
// (unknown) or outside (0, 1] counts as dense.
func taps(g conv.LayerGeom) float64 {
	d := g.Density
	if d <= 0 || d > 1 {
		d = 1
	}
	return math.Max(d*float64(g.Kernel.Volume()), 1)
}

// trainCost applies the Table II totals of one training round (forward,
// backward and kernel gradient): direct costs f′·f·n′³·(2·taps + k³)
// multiply-adds, the forward and backward passes running only the nonzero
// taps and the kernel gradient every tap (3·f′·f·n′³·k³ for a dense
// kernel); memoized FFT costs 6Ch·log₂(n³)·[f′+f+f′·f] + 12·f′·f·h, where
// h = (X/2+1)·Y·Z is the Hermitian-packed coefficient count — real-input
// transforms and packed pointwise products do roughly half the work the
// paper's full-complex formula (h = n³) charges, which shifts the crossover
// toward FFT. At PrecF32 the spectral term is further discounted by
// f32FFTCostFactor (halved bandwidth on a bandwidth-bound path).
func trainCost(g conv.LayerGeom, m conv.Method, prec conv.Precision) float64 {
	out := g.In.ValidConv(g.Kernel, g.Sp)
	f, fp := float64(g.F), float64(g.FPrime)
	switch m {
	case conv.Direct:
		kv := float64(g.Kernel.Volume())
		ov := float64(out.Volume())
		return fp * f * ov * (2*taps(g) + kv)
	case conv.FFT:
		ms := g.TransformShape()
		nv := float64(ms.Volume())
		hv := float64(fft.PackedVolume(ms))
		cost := 6*conv.FFTConstant*hv*math.Log2(math.Max(nv, 2))*(fp+f+fp*f) +
			12*fp*f*hv
		if prec == conv.PrecF32 {
			cost *= f32FFTCostFactor
		}
		return cost
	default:
		return math.Inf(1)
	}
}

// forwardCost models one forward (inference) pass of a fully connected
// layer, in the same units as trainCost. It counts the forward pass only:
// f′·f convolutions of the nonzero taps for Direct; for FFT, f shared image
// transforms, f′ inverse transforms at the summing nodes and f′·f pointwise
// products (kernel transforms are memoized across rounds and amortized
// separately by layerCost's fused-K term).
func forwardCost(g conv.LayerGeom, m conv.Method, prec conv.Precision) float64 {
	out := g.In.ValidConv(g.Kernel, g.Sp)
	f, fp := float64(g.F), float64(g.FPrime)
	ov := float64(out.Volume())
	switch m {
	case conv.Direct:
		return fp * f * ov * taps(g)
	case conv.FFT:
		ms := g.TransformShape()
		nv := float64(ms.Volume())
		hv := float64(fft.PackedVolume(ms))
		cost := 2*conv.FFTConstant*hv*math.Log2(math.Max(nv, 2))*(f+fp) + 6*fp*f*hv
		if prec == conv.PrecF32 {
			cost *= f32FFTCostFactor
		}
		return cost
	default:
		return math.Inf(1)
	}
}
