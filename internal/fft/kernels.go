package fft

import "znn/internal/tensor"

// This file holds the portable flat kernels: the pointwise spectrum
// products and the real scale, per precision.
//
// The gc compiler implements the builtin complex64 multiply by promoting
// both operands through float64 (see go.dev/issue/17518), which makes a
// complex64 product ~2× slower than a complex128 one and would forfeit the
// float32 path's bandwidth advantage, so the complex64 kernels spell the
// product out in float32 component arithmetic; the complex128 ones keep the
// builtin arithmetic.
//
// Each has an AVX2 counterpart; the undecorated names (mulInto64,
// scale128, …) are the function variables in dispatch.go, resolved once at
// init to either implementation (see the package doc's "Vector kernel
// dispatch" section).

// scale64Scalar multiplies every element by the real factor s.
func scale64Scalar(data []complex64, s float32) {
	for i, v := range data {
		data[i] = complex(real(v)*s, imag(v)*s)
	}
}

// mulInto64Scalar is MulInto without the complex64 promotion penalty.
func mulInto64Scalar(dst, a, b []complex64) {
	for i := range dst {
		x, y := a[i], b[i]
		dst[i] = complex(real(x)*real(y)-imag(x)*imag(y), real(x)*imag(y)+imag(x)*real(y))
	}
}

// mulAccInto64Scalar is MulAccInto without the promotion penalty.
func mulAccInto64Scalar(dst, a, b []complex64) {
	for i := range dst {
		x, y := a[i], b[i]
		dst[i] += complex(real(x)*real(y)-imag(x)*imag(y),
			real(x)*imag(y)+imag(x)*real(y))
	}
}

// scale128Scalar multiplies every element by the real factor s, scaling
// the components directly (two multiplies per element, where a complex
// multiply by s+0i would take six).
func scale128Scalar(data []complex128, s float64) {
	for i, v := range data {
		data[i] = complex(real(v)*s, imag(v)*s)
	}
}

// mulInto128Scalar is the portable complex128 MulInto.
func mulInto128Scalar(dst, a, b []complex128) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// mulAccInto128Scalar is the portable complex128 MulAccInto.
func mulAccInto128Scalar(dst, a, b []complex128) {
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// mulConjScalar computes dst[i] = a[i]·conj(b[i]), or with acc dst[i] +=
// a[i]·conj(b[i]), in the component arithmetic of F, C's float type (which
// also spares complex64 the promotion). Each product is rounded before the
// sums (the conversions forbid fusing them), the operation order of the
// AVX2 bodies, so the two agree bit for bit.
func mulConjScalar[F tensor.Real, C Complex](dst, a, b []C, acc bool) {
	d, x, y := pairs[F](dst), pairs[F](a), pairs[F](b)
	for i := range d {
		xr, xi, yr, yi := x[i][0], x[i][1], y[i][0], y[i][1]
		re, im := F(xr*yr)+F(xi*yi), F(xi*yr)-F(xr*yi)
		if acc {
			re, im = d[i][0]+re, d[i][1]+im
		}
		d[i] = [2]F{re, im}
	}
}
