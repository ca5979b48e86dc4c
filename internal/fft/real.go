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
// transform.
//
// Plans are cached per (length, precision) and safe for concurrent use.
type PlanROf[R tensor.Real, C Complex] struct {
	n    int
	half *PlanOf[C] // length n/2 complex plan (nil for n = 1)
	wf   []C        // split twiddles exp(−2πik/n), k = 0 .. n/2

	scratch sync.Pool // *[]C of length n/2
}

// PlanR is the double-precision real-transform plan.
type PlanR = PlanROf[float64, complex128]

// planRKey identifies a cached real plan: both type parameters are free in
// the generic signature, so mismatched-but-legal pairings like
// (float32, complex128) must not collide with the canonical ones.
type planRKey struct {
	n        int
	r32, c32 bool
}

var (
	planRMu    sync.Mutex
	planRCache = map[planRKey]any{} // *PlanROf[R, C]
)

// NewPlanR returns a (cached) float64 real-transform plan for length n.
func NewPlanR(n int) *PlanR { return NewPlanROf[float64, complex128](n) }

// NewPlanROf returns a (cached) real-transform plan for length n at the
// given precision. It panics for n < 1 and for odd n > 1: callers pad
// the X extent with GoodShape first. An even n whose half is not 5-smooth
// panics in NewPlanOf.
func NewPlanROf[R tensor.Real, C Complex](n int) *PlanROf[R, C] {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	if n > 1 && n%2 != 0 {
		panic(fmt.Sprintf("fft: real transform length %d is odd; pad it with GoodShape (X extent %d)",
			n, GoodShape(tensor.S3(n, 1, 1)).X))
	}
	key := planRKey{n, isR32[R](), is32[C]()}
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
	p.scratch.New = func() any {
		s := make([]C, n/2)
		return &s
	}
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
	sp := p.scratch.Get().(*[]C)
	z := *sp
	defer p.scratch.Put(sp)
	// Even length n = 2m: transform z[j] = x[2j] + i·x[2j+1] at length m,
	// then split even/odd sub-spectra with the butterfly
	//   Fe[k] = (Z[k] + conj(Z[m−k]))/2
	//   Fo[k] = −i·(Z[k] − conj(Z[m−k]))/2
	//   F[k]  = Fe[k] + w^k·Fo[k],  w = exp(−2πi/n).
	m := p.n / 2
	for j := 0; j < m; j++ {
		z[j] = cmplxOf[C](float64(src[2*j]), float64(src[2*j+1]))
	}
	p.half.Forward(z)
	z0 := complex128(z[0])
	dst[0] = cmplxOf[C](real(z0)+imag(z0), 0)
	dst[m] = cmplxOf[C](real(z0)-imag(z0), 0)
	if d64, ok := any(dst).([]complex64); ok {
		r2cCombine64(d64, any(z).([]complex64), any(p.wf).([]complex64), m)
		return
	}
	half := cmplxOf[C](0.5, 0)
	negHalfI := cmplxOf[C](0, -0.5)
	for k := 1; k < m; k++ {
		a := z[k]
		b := conjOf(z[m-k])
		fe := (a + b) * half
		fo := (a - b) * negHalfI
		dst[k] = fe + p.wf[k]*fo
	}
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
	sp := p.scratch.Get().(*[]C)
	z := *sp
	defer p.scratch.Put(sp)
	// Even length n = 2m: invert the split butterfly,
	//   Fe[k] = (F[k] + conj(F[m−k]))/2
	//   Fo[k] = (F[k] − conj(F[m−k]))·w^{−k}/2
	//   Z[k]  = Fe[k] + i·Fo[k],
	// then a length-m inverse yields x[2j] + i·x[2j+1]. The 1/m and the
	// caller's scale fold into the butterfly constant.
	m := p.n / 2
	if z64, ok := any(z).([]complex64); ok {
		c2rPre64(z64, any(src).([]complex64), any(p.wf).([]complex64), m,
			float32(0.5*scale/float64(m)))
	} else {
		cs := cmplxOf[C](0.5*scale/float64(m), 0)
		posI := cmplxOf[C](0, 1)
		for k := 0; k < m; k++ {
			a := src[k]
			b := conjOf(src[m-k])
			fe := a + b
			fo := (a - b) * conjOf(p.wf[k])
			z[k] = (fe + fo*posI) * cs
		}
	}
	p.half.InverseUnscaled(z)
	for j := 0; j < m; j++ {
		zj := complex128(z[j])
		dst[2*j] = R(real(zj))
		dst[2*j+1] = R(imag(zj))
	}
}
