package fft

// This file holds the complex64 specializations of the transform hot loops.
//
// The gc compiler implements the builtin complex64 multiply by promoting
// both operands through float64 (see go.dev/issue/17518), which makes a
// complex64 product ~2× slower than a complex128 one and would forfeit the
// float32 path's entire bandwidth advantage inside the compute-bound
// butterflies. Spelled out in explicit float32 component arithmetic the
// same butterflies run at full float32 speed, so the generic entry points
// dispatch to these kernels when C = complex64. The complex128
// instantiation runs rec, which keeps the builtin complex arithmetic.
//
// The flat kernels with AVX2 counterparts carry a Scalar suffix; the
// undecorated names (mulInto64, scale64, …) are the function variables in
// dispatch.go, resolved once at init to either implementation (see the
// package doc's "Vector kernel dispatch" section).

// mul64 is the promotion-free complex64 product.
func mul64(a, b complex64) complex64 {
	ar, ai := real(a), imag(a)
	br, bi := real(b), imag(b)
	return complex(ar*br-ai*bi, ar*bi+ai*br)
}

// rec64 mirrors rec with manual float32 butterflies.
func rec64(factors []int, pn int, dst, src []complex64, n, stride, fi int, w []complex64) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	radix := factors[fi]
	m := n / radix
	for j := 0; j < radix; j++ {
		rec64(factors, pn, dst[j*m:(j+1)*m], src[j*stride:], m, stride*radix, fi+1, w)
	}
	step := pn / n
	switch radix {
	case 2:
		for k := 0; k < m; k++ {
			a := dst[k]
			b := dst[m+k]
			t := w[k*step]
			xr := real(b)*real(t) - imag(b)*imag(t)
			xi := real(b)*imag(t) + imag(b)*real(t)
			ar, ai := real(a), imag(a)
			dst[k] = complex(ar+xr, ai+xi)
			dst[m+k] = complex(ar-xr, ai-xi)
		}
	case 3:
		wr, wi := real(w[pn/3]), imag(w[pn/3])
		for k := 0; k < m; k++ {
			a := dst[k]
			b := mul64(dst[m+k], w[k*step])
			c := mul64(dst[2*m+k], w[2*k*step])
			sR, sI := real(b)+real(c), imag(b)+imag(c)
			dR, dI := real(b)-real(c), imag(b)-imag(c)
			tR, tI := real(a)+wr*sR, imag(a)+wr*sI
			uR, uI := -wi*dI, wi*dR
			dst[k] = complex(real(a)+sR, imag(a)+sI)
			dst[m+k] = complex(tR+uR, tI+uI)
			dst[2*m+k] = complex(tR-uR, tI-uI)
		}
	case 4:
		neg := w[pn/4] // -i forward, +i inverse (to float32 rounding)
		nr, ni := real(neg), imag(neg)
		for k := 0; k < m; k++ {
			a := dst[k]
			b := mul64(dst[m+k], w[k*step])
			c := mul64(dst[2*m+k], w[2*k*step])
			d := mul64(dst[3*m+k], w[3*k*step])
			apcR, apcI := real(a)+real(c), imag(a)+imag(c)
			amcR, amcI := real(a)-real(c), imag(a)-imag(c)
			bpdR, bpdI := real(b)+real(d), imag(b)+imag(d)
			bmdR, bmdI := real(b)-real(d), imag(b)-imag(d)
			jr := bmdR*nr - bmdI*ni
			ji := bmdR*ni + bmdI*nr
			dst[k] = complex(apcR+bpdR, apcI+bpdI)
			dst[m+k] = complex(amcR+jr, amcI+ji)
			dst[2*m+k] = complex(apcR-bpdR, apcI-bpdI)
			dst[3*m+k] = complex(amcR-jr, amcI-ji)
		}
	case 5:
		r1, i1 := real(w[pn/5]), imag(w[pn/5])
		r2, i2 := real(w[2*pn/5]), imag(w[2*pn/5])
		for k := 0; k < m; k++ {
			x0 := dst[k]
			x1 := mul64(dst[m+k], w[k*step])
			x2 := mul64(dst[2*m+k], w[2*k*step])
			x3 := mul64(dst[3*m+k], w[3*k*step])
			x4 := mul64(dst[4*m+k], w[4*k*step])
			s1R, s1I := real(x1)+real(x4), imag(x1)+imag(x4)
			d1R, d1I := real(x1)-real(x4), imag(x1)-imag(x4)
			s2R, s2I := real(x2)+real(x3), imag(x2)+imag(x3)
			d2R, d2I := real(x2)-real(x3), imag(x2)-imag(x3)
			t1R, t1I := real(x0)+r1*s1R+r2*s2R, imag(x0)+r1*s1I+r2*s2I
			u1R, u1I := -(i1*d1I + i2*d2I), i1*d1R+i2*d2R
			t2R, t2I := real(x0)+r2*s1R+r1*s2R, imag(x0)+r2*s1I+r1*s2I
			u2R, u2I := -(i2*d1I - i1*d2I), i2*d1R-i1*d2R
			dst[k] = complex(real(x0)+s1R+s2R, imag(x0)+s1I+s2I)
			dst[m+k] = complex(t1R+u1R, t1I+u1I)
			dst[2*m+k] = complex(t2R+u2R, t2I+u2I)
			dst[3*m+k] = complex(t2R-u2R, t2I-u2I)
			dst[4*m+k] = complex(t1R-u1R, t1I-u1I)
		}
	}
}

// scale64Scalar multiplies every element by the real factor s.
func scale64Scalar(data []complex64, s float32) {
	for i, v := range data {
		data[i] = complex(real(v)*s, imag(v)*s)
	}
}

// mulInto64Scalar is MulInto without the complex64 promotion penalty.
func mulInto64Scalar(dst, a, b []complex64) {
	for i := range dst {
		dst[i] = mul64(a[i], b[i])
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

// r2cCombine64 is the even-length forward split butterfly of PlanROf at
// complex64: dst[k] = Fe[k] + w^k·Fo[k] over k = 1..m−1, with the k = 0 and
// k = m terms handled by the caller.
func r2cCombine64(dst, z, wf []complex64, m int) {
	for k := 1; k < m; k++ {
		a := z[k]
		b := z[m-k]
		// conj(b) folds into the component arithmetic.
		feR, feI := (real(a)+real(b))*0.5, (imag(a)-imag(b))*0.5
		foR, foI := (imag(a)+imag(b))*0.5, (real(b)-real(a))*0.5
		t := wf[k]
		dst[k] = complex(feR+foR*real(t)-foI*imag(t), feI+foR*imag(t)+foI*real(t))
	}
}

// c2rPre64 is the even-length inverse pre-pass of PlanROf at complex64:
// z[k] = (Fe[k] + i·Fo[k])·cs with Fe, Fo reconstructed from the packed
// half-spectrum src (length m+1) and the split twiddles wf.
func c2rPre64(z, src, wf []complex64, m int, cs float32) {
	for k := 0; k < m; k++ {
		a := src[k]
		b := src[m-k]
		// b̄ = conj(b); fe = a + b̄, fo = (a − b̄)·conj(w^k).
		feR, feI := real(a)+real(b), imag(a)-imag(b)
		dR, dI := real(a)-real(b), imag(a)+imag(b)
		t := wf[k]
		foR := dR*real(t) + dI*imag(t)
		foI := dI*real(t) - dR*imag(t)
		// z = (fe + i·fo)·cs
		z[k] = complex((feR-foI)*cs, (feI+foR)*cs)
	}
}
