package fft

import "znn/internal/tensor"

// GoodShape returns the transform shape FFT convolution uses for a full
// convolution of shape s: the smallest shape ≥ s whose extents are all
// 5-smooth and whose X extent is even, or 1 when s.X is 1. An even X is
// what lets the r2c X pass run through a half-length complex plan
// (PlanROf); Y and Z run full complex passes and take any 5-smooth extent.
// The smallest even 5-smooth m ≥ n is 2·GoodSize(⌈n/2⌉).
func GoodShape(s tensor.Shape) tensor.Shape {
	x := 1
	if s.X > 1 {
		x = 2 * GoodSize((s.X+1)/2)
	}
	return tensor.Shape{X: x, Y: GoodSize(s.Y), Z: GoodSize(s.Z)}
}

// MulInto computes dst[i] = a[i]*b[i] elementwise; dst may alias a or b.
// It applies equally to full and Hermitian-packed spectra: packing only
// restricts which coefficients are stored, and the convolution theorem
// holds pointwise at each of them.
func MulInto[C Complex](dst, a, b []C) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("fft: MulInto length mismatch")
	}
	if d64, ok := any(dst).([]complex64); ok {
		mulInto64(d64, any(a).([]complex64), any(b).([]complex64))
		return
	}
	mulInto128(any(dst).([]complex128), any(a).([]complex128), any(b).([]complex128))
}

// MulAccInto computes dst[i] += a[i]*b[i] elementwise, the accumulation used
// when several FFT-domain products converge on one node. Like MulInto it
// works on full and packed spectra alike.
func MulAccInto[C Complex](dst, a, b []C) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("fft: MulAccInto length mismatch")
	}
	if d64, ok := any(dst).([]complex64); ok {
		mulAccInto64(d64, any(a).([]complex64), any(b).([]complex64))
		return
	}
	mulAccInto128(any(dst).([]complex128), any(a).([]complex128), any(b).([]complex128))
}
