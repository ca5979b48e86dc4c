package fft

import "znn/internal/tensor"

// lineBlock is the number of adjacent strided lines gathered into one
// contiguous tile by blockLines. Eight complex128 values span two cache
// lines (eight complex64 values span one), so each sweep of the volume
// moves whole lines' worth of useful data instead of one element per cache
// line.
const lineBlock = 8

// blockLines applies the 1D transform pl to every length-n line of the
// given stride inside buf: line c (for c = 0 .. width−1) occupies elements
// buf[base + c + j*stride], j = 0 .. n−1.
//
// Lines are processed in blocks of lineBlock adjacent columns: each block
// is transposed into the contiguous tile (line c at tile[c*n : (c+1)*n]),
// transformed at unit stride, and transposed back. The gather/scatter reads
// and writes runs of up to lineBlock consecutive elements, so a full pass
// over the volume touches each cache line O(1) times instead of once per
// column, which is what made the old element-at-a-time strided walk the
// slow phase of the separable transform. tile must have room for
// lineBlock·n elements.
func blockLines[C Complex](pl *PlanOf[C], buf []C, base, width, stride, n int, inverse bool, tile []C) {
	for x0 := 0; x0 < width; x0 += lineBlock {
		b := min(lineBlock, width-x0)
		for j := 0; j < n; j++ {
			row := buf[base+x0+j*stride:]
			for c := 0; c < b; c++ {
				tile[c*n+j] = row[c]
			}
		}
		for c := 0; c < b; c++ {
			line := tile[c*n : (c+1)*n]
			if inverse {
				pl.InverseUnscaled(line)
			} else {
				pl.Forward(line)
			}
		}
		for j := 0; j < n; j++ {
			row := buf[base+x0+j*stride:]
			for c := 0; c < b; c++ {
				row[c] = tile[c*n+j]
			}
		}
	}
}

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
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
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
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}
