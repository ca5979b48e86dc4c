package fft

import (
	"fmt"
	"math"

	"znn/internal/tensor"
)

// This file holds the scalar references the packed transforms are checked
// against: the O(n²) DFT, its separable 3D application, and a full complex
// 3D transform (Plan3) with its real load and store. None of them is on a production path, so none of
// them is vectorized or cached.

// NaiveDFT computes the O(n²) discrete Fourier transform.
func NaiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k*j%n) / float64(n)
			acc += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = acc
	}
	return out
}

// NaiveDFT3 computes the full complex 3D DFT of buf (laid out with shape
// s, x fastest) by applying NaiveDFT along each axis in turn: separable,
// so O(N·(X+Y+Z)), and independent of every plan and kernel.
func NaiveDFT3(buf []complex128, s tensor.Shape, inverse bool) {
	axis := func(n, stride int, starts func(yield func(int))) {
		line := make([]complex128, n)
		starts(func(o int) {
			for j := range line {
				line[j] = buf[o+j*stride]
			}
			for j, v := range NaiveDFT(line, inverse) {
				buf[o+j*stride] = v
			}
		})
	}
	axis(s.X, 1, func(yield func(int)) {
		for z := 0; z < s.Z; z++ {
			for y := 0; y < s.Y; y++ {
				yield(s.Index(0, y, z))
			}
		}
	})
	axis(s.Y, s.X, func(yield func(int)) {
		for z := 0; z < s.Z; z++ {
			for x := 0; x < s.X; x++ {
				yield(s.Index(x, 0, z))
			}
		}
	})
	axis(s.Z, s.X*s.Y, func(yield func(int)) {
		for o := 0; o < s.X*s.Y; o++ {
			yield(o)
		}
	})
}

// Plan3 performs separable complex128 3D transforms over a buffer laid out
// like a tensor of the plan's shape (x fastest), one line at a time
// through the same 1D plans as Plan3R.
type Plan3 struct {
	s          tensor.Shape
	px, py, pz *Plan
}

// NewPlan3 returns a 3D plan for the given 5-smooth shape.
func NewPlan3(s tensor.Shape) *Plan3 {
	if !s.Valid() {
		panic(fmt.Sprintf("fft: invalid 3D shape %v", s))
	}
	return &Plan3{s: s, px: NewPlan(s.X), py: NewPlan(s.Y), pz: NewPlan(s.Z)}
}

// Forward computes the in-place 3D forward DFT of buf.
func (p *Plan3) Forward(buf []complex128) { p.transform(buf, false) }

// Inverse computes the in-place 3D inverse DFT of buf including the 1/N
// normalization (N = volume).
func (p *Plan3) Inverse(buf []complex128) {
	p.transform(buf, true)
	scaleOf(buf, 1/float64(p.s.Volume()))
}

func (p *Plan3) transform(buf []complex128, inverse bool) {
	s := p.s
	if len(buf) != s.Volume() {
		panic(fmt.Sprintf("fft: buffer length %d does not match shape %v", len(buf), s))
	}
	// X lines are contiguous.
	for off := 0; off < len(buf); off += s.X {
		line := buf[off : off+s.X]
		if inverse {
			p.px.InverseUnscaled(line)
		} else {
			p.px.Forward(line)
		}
	}
	// Y lines have stride X, Z lines stride X·Y.
	line := make([]complex128, max(s.Y, s.Z))
	for _, ax := range []struct {
		p         *Plan
		n, stride int
	}{{p.py, s.Y, s.X}, {p.pz, s.Z, s.X * s.Y}} {
		for o := range buf {
			if o/ax.stride%ax.n != 0 {
				continue // not the first element of a line
			}
			l := line[:ax.n]
			for j := range l {
				l[j] = buf[o+j*ax.stride]
			}
			if inverse {
				ax.p.InverseUnscaled(l)
			} else {
				ax.p.Forward(l)
			}
			for j, v := range l {
				buf[o+j*ax.stride] = v
			}
		}
	}
}

// LoadReal writes t into the complex buffer buf (laid out with shape s),
// zero-padding outside t's extent. It panics if t does not fit in s.
func LoadReal(buf []complex128, s tensor.Shape, t *tensor.Tensor) {
	if !t.S.Fits(s) {
		panic(fmt.Sprintf("fft: tensor %v does not fit in buffer shape %v", t.S, s))
	}
	clear(buf)
	for z := 0; z < t.S.Z; z++ {
		for y := 0; y < t.S.Y; y++ {
			src := t.Data[t.S.Index(0, y, z):]
			off := s.Index(0, y, z)
			for x := 0; x < t.S.X; x++ {
				buf[off+x] = complex(src[x], 0)
			}
		}
	}
}

// StoreReal extracts the real parts of a sub-volume of buf starting at
// (ox,oy,oz) into dst.
func StoreReal(dst *tensor.Tensor, buf []complex128, s tensor.Shape, ox, oy, oz int) {
	d := dst.S
	if ox < 0 || oy < 0 || oz < 0 || ox+d.X > s.X || oy+d.Y > s.Y || oz+d.Z > s.Z {
		panic(fmt.Sprintf("fft: store region %v at (%d,%d,%d) out of range of %v", d, ox, oy, oz, s))
	}
	for z := 0; z < d.Z; z++ {
		for y := 0; y < d.Y; y++ {
			off := s.Index(ox, oy+y, oz+z)
			row := dst.Data[d.Index(0, y, z):]
			for x := 0; x < d.X; x++ {
				row[x] = real(buf[off+x])
			}
		}
	}
}
