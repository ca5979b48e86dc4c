// Package fft implements the fast Fourier transforms that back ZNN's
// FFT-based convolution (Section IV of the paper).
//
// The original ZNN delegates to fftw or Intel MKL; this package is a
// self-contained pure-Go replacement with the same asymptotics:
//
//   - mixed-radix Cooley-Tukey for lengths whose prime factors are all
//     ≤ 5 (the sizes GoodSize produces), one lane-batched recursion for
//     both precisions (laneDFT), and
//   - separable 3D real-to-complex transforms with Hermitian-packed spectra
//     (PlanR/Plan3R), built from cached 1D plans, the path for convolution
//     of real images.
//
// # Shapes
//
// The package serves exactly the transform shapes GoodShape returns, which
// is what FFT convolution asks for: every extent is 5-smooth, and the X
// extent is even or 1. NewPlanOf panics on a length that is not 5-smooth and
// NewPlanROf on an odd length above 1, naming the function that pads it. A
// full complex 3D transform (Plan3) is not part of the package: it lives in
// the tests, as the scalar reference the packed transform is checked
// against.
//
// # Precision
//
// Every plan is generic over the coefficient type: PlanOf[C] for complex
// line transforms, PlanROf[R, C] and Plan3ROf[R, C] for the real-input
// transforms, with C ∈ {complex64, complex128} and R the matching float
// type. The training pipeline is memory-bandwidth-bound on multi-core
// machines, so the complex64 instantiation — half the bytes per
// coefficient — roughly doubles effective bandwidth through the Y/Z passes
// and every pointwise spectral operation. Twiddle tables are always
// computed in float64 and rounded once, so the float32 path loses no
// accuracy to table construction. Plan, PlanR and Plan3R remain aliases for
// the float64/complex128 instantiations; plans of both precisions for one
// length coexist in the cache.
//
// # Packed spectra
//
// The DFT of a real signal is Hermitian-symmetric, so for a real volume of
// shape (X, Y, Z) only the coefficients with kx = 0 .. X/2 are independent:
//
//	F[kx, ky, kz] = conj(F[(X−kx) mod X, (Y−ky) mod Y, (Z−kz) mod Z])
//
// A packed spectrum stores exactly those (X/2+1)·Y·Z coefficients, laid out
// like a tensor of shape PackedShape(s) = (X/2+1, Y, Z) with x fastest:
// coefficient (kx, ky, kz) at linear index (kz·Y + ky)·(X/2+1) + kx. Packing
// halves both the transform flops (the even X extent runs r2c through a
// half-length complex plan; Y and Z passes cover only X/2+1 columns) and
// the memory and pointwise work of every spectral-domain operation.
// Pointwise identities — products (MulInto/MulAccInto) and conjugate
// products (MulConjSpecInto, the spectrum of a circular correlation, which
// is how convolution's backward pass and update avoid reflecting a
// spectrum) — apply to packed spectra unchanged, because they hold per
// coefficient and packing only drops coefficients implied by symmetry.
//
// Plans are safe for concurrent use by multiple workers; per-call scratch
// comes from sync.Pool so steady-state transforms do not allocate.
//
// # Batched spectrum sharing
//
// The Spectrum handle (dtype-tagged, pool-aware via Release) is the unit
// the engine moves between layers; batched inference extends the sharing
// contract one axis: a fused K-volume round materializes K spectra per
// (node, transform shape) — one per volume, shared immutably by every
// consuming edge — while each edge's kernel spectrum is loaded once per
// sweep and multiplied against all K. The plans themselves are unchanged:
// batching is a buffer-lifetime protocol (conv.SpectrumCache), not a
// transform variant, and one inverse transform still runs per
// (node, volume).
//
// # Vector kernel dispatch
//
// The hot path of both precisions — pointwise spectrum products, the
// inner butterflies of the line transforms and the gathers and scatters
// around them — is reachable through two interchangeable kernel sets,
// selected once at package init:
//
//   - AVX2+FMA assembly (kernels_amd64.s), installed on amd64 builds when
//     internal/cpu confirms AVX2, FMA and OS YMM-state support at runtime.
//     The flat kernels process one YMM register of coefficients per
//     iteration (four complex64 or two complex128); the butterfly kernels
//     run lane-batched: the 3D plan gathers eight independent lines into
//     split re/im planes (element j of lane c at plane index j·8+c) so each
//     butterfly is a column of 8-wide vertical float32 FMAs, or two 4-wide
//     float64 ones, with broadcast twiddles. Lane batching covers all three
//     axes, including the r2c/c2r X pass. The Y/Z passes' gather and
//     scatter of each full block of 8 columns are assembly too.
//   - Portable Go kernels otherwise: the same lane-batched recursion on the
//     Go twins of the butterflies (lane.go).
//
// The dispatch contract: selection happens exactly once, before any
// transform runs; the installed set is process-global and immutable on the
// production path; and the two sets agree to rounding (the assembly
// contracts multiply-adds through FMA, so results differ from the portable
// path in the last bits — never rely on bitwise-identical spectra across
// hosts; the conjugate products, which round like their Go twin, and the
// gathers and scatters, which only move data, agree bit for bit).
// KernelPath reports the decision ("avx2", "scalar", or "purego");
// KernelDispatches counts calls into the vector set, which is how CI proves
// the assembly actually ran. Building with `-tags purego` is the escape
// hatch that excludes all assembly and CPUID probing — the portable
// configuration every non-amd64 port compiles, and the fastest way to rule
// the vector kernels in or out when debugging a numerical discrepancy.
package fft

import (
	"fmt"
	"math"
	"sync"

	"znn/internal/tensor"
)

// Complex is the constraint satisfied by spectrum coefficient types.
// Exactly the two builtin types (no ~) — see tensor.Real for why defined
// types are excluded.
type Complex interface {
	complex64 | complex128
}

// is32 reports whether the coefficient type C is the single-precision
// complex64 (used to key plan caches and size accounting).
func is32[C Complex]() bool {
	var z C
	_, ok := any(z).(complex64)
	return ok
}

// isR32 is is32 for the real type parameter of the r2c plans.
func isR32[R tensor.Real]() bool {
	var z R
	_, ok := any(z).(float32)
	return ok
}

// cmplxOf builds a coefficient of type C from float64 parts.
func cmplxOf[C Complex](re, im float64) C {
	return C(complex(re, im))
}

// maxRadix is the largest prime factor handled by the mixed-radix path.
// Plans exist only for lengths without a larger prime factor.
const maxRadix = 5

// PlanOf holds the precomputed twiddle factors for 1D complex transforms of
// a fixed length at coefficient type C.
type PlanOf[C Complex] struct {
	n       int
	factors []int // mixed-radix factorization
	perm    []int // leafOrder(factors)
	w       []C   // w[k] = exp(-2πi k/n), forward twiddles
	winv    []C   // conjugate twiddles for the inverse transform

	scratch sync.Pool // *laneTile[F] of length n, F the component type of C
}

// Plan is the double-precision complex plan.
type Plan = PlanOf[complex128]

// planKey identifies a cached plan: plans of both precisions for the same
// length coexist.
type planKey struct {
	n   int
	f32 bool
}

var (
	planMu    sync.Mutex
	planCache = map[planKey]any{} // *PlanOf[C]
)

// NewPlan returns a (cached) complex128 plan for transforms of length n.
func NewPlan(n int) *Plan { return NewPlanOf[complex128](n) }

// NewPlanOf returns a (cached) plan for transforms of length n at
// coefficient type C. It panics for n < 1 and for lengths that are not
// 5-smooth: callers pad to GoodSize first.
func NewPlanOf[C Complex](n int) *PlanOf[C] {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	factors, rem := factorize(n)
	if rem != 1 {
		panic(fmt.Sprintf("fft: transform length %d has a prime factor above %d; pad it to GoodSize(%d) = %d",
			n, maxRadix, n, GoodSize(n)))
	}
	key := planKey{n, is32[C]()}
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := planCache[key]; ok {
		return p.(*PlanOf[C])
	}
	p := &PlanOf[C]{n: n, factors: factors, perm: leafOrder(factors), w: twiddlesOf[C](n, -1), winv: twiddlesOf[C](n, +1)}
	p.scratch.New = func() any { return newTile[C](n, 1) }
	planCache[key] = p
	return p
}

// Len returns the transform length.
func (p *PlanOf[C]) Len() int { return p.n }

// twiddlesOf returns the n roots of unity exp(sign·2πi k/n), computed in
// float64 and rounded once to C.
func twiddlesOf[C Complex](n int, sign float64) []C {
	w := make([]C, n)
	for k := 0; k < n; k++ {
		ang := sign * 2 * math.Pi * float64(k) / float64(n)
		w[k] = cmplxOf[C](math.Cos(ang), math.Sin(ang))
	}
	return w
}

// factorize splits n into factors in {4, 2, 3, 5} (4 first so the common
// power-of-two case uses radix-4 butterflies), returning the factor list and
// the remaining co-factor, which is 1 iff n is 5-smooth.
func factorize(n int) (factors []int, rem int) {
	rem = n
	for rem%4 == 0 {
		factors = append(factors, 4)
		rem /= 4
	}
	for rem%2 == 0 {
		factors = append(factors, 2)
		rem /= 2
	}
	for rem%3 == 0 {
		factors = append(factors, 3)
		rem /= 3
	}
	for rem%5 == 0 {
		factors = append(factors, 5)
		rem /= 5
	}
	return factors, rem
}

// GoodSize returns the smallest 5-smooth integer ≥ n, the lengths NewPlanOf
// accepts. FFT convolution pads images to good sizes (see GoodShape).
func GoodSize(n int) int {
	if n < 1 {
		return 1
	}
	for m := n; ; m++ {
		if _, rem := factorize(m); rem == 1 {
			return m
		}
	}
}

// Forward computes the in-place forward DFT of data, whose length must equal
// the plan length.
func (p *PlanOf[C]) Forward(data []C) { p.transform(data, false) }

// Inverse computes the in-place inverse DFT of data, including the 1/n
// normalization.
func (p *PlanOf[C]) Inverse(data []C) {
	p.transform(data, true)
	scaleOf(data, 1/float64(p.n))
}

// scaleOf multiplies every element by the real factor s, scaling the
// components directly (two multiplies per element); a full complex
// multiply by (s+0i) would double the flops of the normalization pass.
func scaleOf[C Complex](data []C, s float64) {
	if d64, ok := any(data).([]complex64); ok {
		scale64(d64, float32(s))
		return
	}
	scale128(any(data).([]complex128), s)
}

// InverseUnscaled computes the inverse DFT without the 1/n factor. FFT
// convolution folds the normalization into a single pass over the product.
func (p *PlanOf[C]) InverseUnscaled(data []C) { p.transform(data, true) }

func (p *PlanOf[C]) transform(data []C, inverse bool) {
	if len(data) != p.n {
		panic(fmt.Sprintf("fft: data length %d does not match plan length %d", len(data), p.n))
	}
	if p.n == 1 {
		return
	}
	if is32[C]() {
		lineTransform[float32](p, data, inverse)
	} else {
		lineTransform[float64](p, data, inverse)
	}
}

// lineTransform runs one line through laneDFT at nl = 1 on the portable
// kernels; F is C's component type.
func lineTransform[F tensor.Real, C Complex](p *PlanOf[C], data []C, inverse bool) {
	lt := p.scratch.Get().(*laneTile[F])
	d := pairs[F](data)
	gatherLanes(lt.dstRe, lt.dstIm, d, p.perm, 1, 0, 1, 1, p.n, 1, p.n)
	laneDFT(kernelsFor[F](false), p, inverse, lt.dstRe, lt.dstIm)
	scatterLanes(d, lt.dstRe, lt.dstIm, 1, 0, 1, 1, p.n, 1)
	p.scratch.Put(lt)
}

// table returns the plan's twiddle table for the direction.
func (p *PlanOf[C]) table(inverse bool) []C {
	if inverse {
		return p.winv
	}
	return p.w
}

var (
	twiddleMu    sync.Mutex
	twiddleCache = map[int][]complex128{}
)

// Twiddle returns the cached forward twiddle table for length n:
// w[k] = exp(−2πi k/n). Callers must not modify the returned slice.
func Twiddle(n int) []complex128 {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid twiddle length %d", n))
	}
	twiddleMu.Lock()
	defer twiddleMu.Unlock()
	if w, ok := twiddleCache[n]; ok {
		return w
	}
	w := twiddlesOf[complex128](n, -1)
	twiddleCache[n] = w
	return w
}
