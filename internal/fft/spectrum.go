package fft

import (
	"fmt"

	"znn/internal/mempool"
)

// Spectrum is a dtype-tagged handle on a spectrum buffer: exactly one of
// C128/C64 is non-nil. It lets precision-agnostic layers — the training
// engine's spectrum caches, the wait-free complex summation — move
// buffers of either precision without being generic themselves, the same
// role the packed/full layout flag plays in SpectrumCache keys. The layers
// that do arithmetic unwrap the arm they own; Add and the products below
// cover the pointwise operations the engine needs.
type Spectrum struct {
	C128 []complex128
	C64  []complex64
}

// Spec128 wraps a complex128 buffer.
func Spec128(buf []complex128) Spectrum { return Spectrum{C128: buf} }

// Spec64 wraps a complex64 buffer.
func Spec64(buf []complex64) Spectrum { return Spectrum{C64: buf} }

// IsNil reports whether the handle holds no buffer.
func (s Spectrum) IsNil() bool { return s.C128 == nil && s.C64 == nil }

// F32 reports whether the buffer is single-precision (complex64).
func (s Spectrum) F32() bool { return s.C64 != nil }

// Len returns the coefficient count of whichever arm is set.
func (s Spectrum) Len() int {
	if s.C64 != nil {
		return len(s.C64)
	}
	return len(s.C128)
}

// Add accumulates v into s elementwise. Both spectra must hold the same
// precision and length; a mismatch means a mixed packed/full or mixed-
// precision contribution reached one summation, which is a bug upstream
// (SpectralCompatible guarantees homogeneity).
func (s Spectrum) Add(v Spectrum) {
	if s.F32() != v.F32() || s.Len() != v.Len() {
		panic(fmt.Sprintf("fft: spectrum mismatch (f32 %v/%v, len %d/%d): mixed layout or precision contributions",
			s.F32(), v.F32(), s.Len(), v.Len()))
	}
	if s.C64 != nil {
		for i, x := range v.C64 {
			s.C64[i] += x
		}
		return
	}
	for i, x := range v.C128 {
		s.C128[i] += x
	}
}

// Release returns the buffer to the shared spectra pool of its precision
// (mempool.Spectra32 for complex64, mempool.Spectra for complex128). It is
// the single owner of the per-precision release dispatch — wsum partials,
// spectral-sum accumulators and cached spectra all go through it. Safe on
// the zero Spectrum.
func (s Spectrum) Release() {
	if s.C64 != nil {
		mempool.Spectra32.Put(s.C64)
	} else if s.C128 != nil {
		mempool.Spectra.Put(s.C128)
	}
}

// MulSpecInto computes dst[i] = a[i]*b[i] on whichever precision arm the
// operands share; dst may alias a or b.
func MulSpecInto(dst, a, b Spectrum) {
	if dst.F32() != a.F32() || a.F32() != b.F32() {
		panic("fft: MulSpecInto precision mismatch")
	}
	if dst.C64 != nil {
		MulInto(dst.C64, a.C64, b.C64)
		return
	}
	MulInto(dst.C128, a.C128, b.C128)
}

// MulAccSpecInto computes dst[i] += a[i]*b[i] on whichever precision arm the
// operands share: one step of a spectral node sum.
func MulAccSpecInto(dst, a, b Spectrum) {
	if dst.F32() != a.F32() || a.F32() != b.F32() {
		panic("fft: MulAccSpecInto precision mismatch")
	}
	if dst.C64 != nil {
		MulAccInto(dst.C64, a.C64, b.C64)
		return
	}
	MulAccInto(dst.C128, a.C128, b.C128)
}

// MulConjSpecInto computes dst[i] = a[i]·conj(b[i]), or with acc dst[i] +=
// a[i]·conj(b[i]), on whichever precision arm the operands share; dst may
// alias a. conj(F(w)) is the spectrum of w reflected about the origin, so
// the product is the spectrum of the circular cross-correlation of a's
// signal with b's: how the backward pass and the update reuse forward
// spectra without reflecting them. Like MulInto it works on full and
// packed spectra alike.
func MulConjSpecInto(dst, a, b Spectrum, acc bool) {
	if dst.F32() != a.F32() || a.F32() != b.F32() || dst.Len() != a.Len() || a.Len() != b.Len() {
		panic("fft: MulConjSpecInto precision or length mismatch")
	}
	if dst.C64 != nil {
		mulConj64(dst.C64, a.C64, b.C64, acc)
		return
	}
	mulConj128(dst.C128, a.C128, b.C128, acc)
}
