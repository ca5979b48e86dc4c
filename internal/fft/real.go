package fft

import (
	"fmt"
	"sync"

	"znn/internal/tensor"
)

// PlanROf holds the precomputed state for 1D real-to-complex (r2c) forward
// and complex-to-real (c2r) inverse transforms of a fixed length n, generic
// over the float type R and its matching complex type C (float64/complex128
// or float32/complex64).
//
// A real signal's DFT is Hermitian-symmetric, F[k] = conj(F[n−k]), so only
// the first n/2+1 coefficients (k = 0 .. ⌊n/2⌋) are computed and stored —
// the "packed" half-spectrum. The length is 1 or even (GoodShape pads X
// extents to such lengths), and for even n the transform runs through a
// single complex plan of length n/2 (the classic pack-into-complex trick:
// even samples become real parts, odd samples imaginary parts) followed by
// an O(n) split butterfly, roughly halving the work of a full complex
// transform. Both run on the lane kernels (lane.go): one row at a time
// here, eight at a time in Plan3ROf's X pass.
//
// Plans are cached per (length, precision) and safe for concurrent use.
type PlanROf[R tensor.Real, C Complex] struct {
	n    int
	half *PlanOf[C] // length n/2 complex plan (nil for n = 1)
	wf   []C        // split twiddles exp(−2πik/n), k = 0 .. n/2

	scratch sync.Pool // *laneTile[R] of length n/2+1 at one lane
}

// PlanR is the double-precision real-transform plan.
type PlanR = PlanROf[float64, complex128]

var (
	planRMu    sync.Mutex
	planRCache = map[planKey]any{} // *PlanROf[R, C]
)

// NewPlanR returns a (cached) float64 real-transform plan for length n.
func NewPlanR(n int) *PlanR { return NewPlanROf[float64, complex128](n) }

// NewPlanROf returns a (cached) real-transform plan for length n at the
// given precision. It panics for n < 1, for odd n > 1 (callers pad the X
// extent with GoodShape first) and when R and C differ in precision. An
// even n whose half is not 5-smooth panics in NewPlanOf.
func NewPlanROf[R tensor.Real, C Complex](n int) *PlanROf[R, C] {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	if n > 1 && n%2 != 0 {
		panic(fmt.Sprintf("fft: real transform length %d is odd; pad it with GoodShape (X extent %d)",
			n, GoodShape(tensor.S3(n, 1, 1)).X))
	}
	if isR32[R]() != is32[C]() {
		var r R
		var c C
		panic(fmt.Sprintf("fft: real type %T and coefficient type %T differ in precision", r, c))
	}
	key := planKey{n, is32[C]()}
	planRMu.Lock()
	defer planRMu.Unlock()
	if p, ok := planRCache[key]; ok {
		return p.(*PlanROf[R, C])
	}
	p := &PlanROf[R, C]{n: n}
	if n > 1 {
		p.half = NewPlanOf[C](n / 2)
		p.wf = twiddlesOf[C](n, -1)[: n/2+1 : n/2+1]
	}
	p.scratch.New = func() any { return newLaneTile[R](n/2+1, 1) }
	planRCache[key] = p
	return p
}

// Len returns the real transform length n.
func (p *PlanROf[R, C]) Len() int { return p.n }

// HalfLen returns the packed spectrum length n/2+1.
func (p *PlanROf[R, C]) HalfLen() int { return p.n/2 + 1 }

// Forward computes the packed half-spectrum of the real signal src:
// dst[k] = Σ_t src[t]·exp(−2πi t k/n) for k = 0 .. n/2. len(src) must be n
// and len(dst) must be n/2+1. The remaining coefficients are implied by
// Hermitian symmetry F[n−k] = conj(F[k]).
func (p *PlanROf[R, C]) Forward(dst []C, src []R) {
	if len(src) != p.n || len(dst) != p.HalfLen() {
		panic(fmt.Sprintf("fft: r2c lengths src %d dst %d, want %d and %d",
			len(src), len(dst), p.n, p.HalfLen()))
	}
	if p.n == 1 {
		dst[0] = cmplxOf[C](float64(src[0]), 0)
		return
	}
	lt := p.scratch.Get().(*laneTile[R])
	for q, j := range p.half.perm {
		lt.dstRe[q], lt.dstIm[q] = src[2*j], src[2*j+1]
	}
	p.r2c(kernelsFor[R](false), lt)
	scatterLanes(pairs[R](dst), lt.outRe, lt.outIm, 1, 0, 1, 1, p.HalfLen(), 1)
	p.scratch.Put(lt)
}

// Inverse reconstructs the real signal from its packed half-spectrum,
// including the 1/n normalization. len(src) must be n/2+1 and len(dst)
// must be n.
func (p *PlanROf[R, C]) Inverse(dst []R, src []C) {
	p.inverseScaled(dst, src, 1)
}

// inverseScaled computes the c2r inverse with an extra output scale factor
// folded into the O(n) pre-pass (so multi-dimensional callers can apply
// their remaining normalization for free).
func (p *PlanROf[R, C]) inverseScaled(dst []R, src []C, scale float64) {
	if len(dst) != p.n || len(src) != p.HalfLen() {
		panic(fmt.Sprintf("fft: c2r lengths src %d dst %d, want %d and %d",
			len(src), len(dst), p.HalfLen(), p.n))
	}
	if p.n == 1 {
		dst[0] = R(real(complex128(src[0])) * scale)
		return
	}
	lt := p.scratch.Get().(*laneTile[R])
	gatherLanes(lt.outRe, lt.outIm, pairs[R](src), nil, 1, 0, 1, 1, p.HalfLen(), 1, p.HalfLen())
	p.c2r(kernelsFor[R](false), lt, scale)
	for j := range p.n / 2 {
		dst[2*j], dst[2*j+1] = lt.dstRe[j], lt.dstIm[j]
	}
	p.scratch.Put(lt)
}

// r2c transforms k.nl real rows of even length n = 2m in lockstep. On
// entry lt's dst planes hold each row's z[j] = x[2j] + i·x[2j+1] in the
// half plan's leaf order (p.half.perm); the packed rows (m+1 coefficients)
// land in its out planes. After the
// length-m transform of z, the split butterfly
//
//	Fe[k] = (Z[k] + conj(Z[m−k]))/2
//	Fo[k] = −i·(Z[k] − conj(Z[m−k]))/2
//	F[k]  = Fe[k] + w^k·Fo[k],  w = exp(−2πi/n)
//
// separates the even and odd sub-spectra.
func (p *PlanROf[R, C]) r2c(k *laneKernels[R], lt *laneTile[R]) {
	m, nl := p.n/2, k.nl
	laneDFT(k, p.half, false, lt.dstRe, lt.dstIm)
	// The k = 0 and k = m terms come straight from Z[0]: F[0] = Re+Im,
	// F[m] = Re−Im, both purely real.
	for c := 0; c < nl; c++ {
		zr, zi := lt.dstRe[c], lt.dstIm[c]
		lt.outRe[c], lt.outIm[c] = zr+zi, 0
		lt.outRe[m*nl+c], lt.outIm[m*nl+c] = zr-zi, 0
	}
	k.combine(lt.dstRe, lt.dstIm, lt.outRe, lt.outIm, pairs[R](p.wf), m)
}

// c2r is the inverse of r2c: on entry lt's out planes hold k.nl packed
// rows; their real signals, times scale, land in its dst planes as
// x[2j] + i·x[2j+1]. It inverts the split butterfly,
//
//	Fe[k] = (F[k] + conj(F[m−k]))/2
//	Fo[k] = (F[k] − conj(F[m−k]))·w^{−k}/2
//	Z[k]  = Fe[k] + i·Fo[k],
//
// with the 1/m of the length-m inverse and scale folded into its constant.
func (p *PlanROf[R, C]) c2r(k *laneKernels[R], lt *laneTile[R], scale float64) {
	m, nl := p.n/2, k.nl
	k.pre(lt.srcRe, lt.srcIm, lt.outRe, lt.outIm, pairs[R](p.wf), m, R(0.5*scale/float64(m)))
	for q, j := range p.half.perm {
		copy(lt.dstRe[q*nl:(q+1)*nl], lt.srcRe[j*nl:(j+1)*nl])
		copy(lt.dstIm[q*nl:(q+1)*nl], lt.srcIm[j*nl:(j+1)*nl])
	}
	laneDFT(k, p.half, true, lt.dstRe, lt.dstIm)
}
