package tensor

import (
	"fmt"
	"math"
)

// Add accumulates src into t elementwise. Shapes must match.
func (t *Vol[T]) Add(src *Vol[T]) {
	if t.S != src.S {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.S, src.S))
	}
	for i, v := range src.Data {
		t.Data[i] += v
	}
}

// Sub subtracts src from t elementwise. Shapes must match.
func (t *Vol[T]) Sub(src *Vol[T]) {
	if t.S != src.S {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", t.S, src.S))
	}
	for i, v := range src.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every voxel by c.
func (t *Vol[T]) Scale(c float64) {
	cc := T(c)
	for i := range t.Data {
		t.Data[i] *= cc
	}
}

// Axpy computes t += a*x, the fused update used by SGD weight steps.
func (t *Vol[T]) Axpy(a float64, x *Vol[T]) {
	if t.S != x.S {
		panic(fmt.Sprintf("tensor: Axpy shape mismatch %v vs %v", t.S, x.S))
	}
	aa := T(a)
	for i, v := range x.Data {
		t.Data[i] += aa * v
	}
}

// Sum returns the sum of all voxels (used by the bias gradient). The
// accumulation runs in float64 regardless of the element type.
func (t *Vol[T]) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Dot returns the inner product of two tensors of identical shape,
// accumulated in float64.
func (t *Vol[T]) Dot(u *Vol[T]) float64 {
	if t.S != u.S {
		panic(fmt.Sprintf("tensor: Dot shape mismatch %v vs %v", t.S, u.S))
	}
	var s float64
	for i, v := range t.Data {
		s += float64(v) * float64(u.Data[i])
	}
	return s
}

// MaxAbs returns the largest absolute voxel value.
func (t *Vol[T]) MaxAbs() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// Reflect returns a new tensor reversed along all three dimensions.
// Backward convolution uses the reflected kernel; the kernel gradient uses
// the reflected forward image (Section III of the paper).
func (t *Vol[T]) Reflect() *Vol[T] {
	r := NewOf[T](t.S)
	n := len(t.Data)
	for i, v := range t.Data {
		r.Data[n-1-i] = v
	}
	return r
}

// CropFrom returns a new tensor of shape s copied out of t starting at
// offset (ox, oy, oz).
func (t *Vol[T]) CropFrom(ox, oy, oz int, s Shape) *Vol[T] {
	c := NewOf[T](s)
	t.CropInto(c, ox, oy, oz)
	return c
}

// CropInto fills dst with the sub-volume of t starting at (ox, oy, oz).
func (t *Vol[T]) CropInto(dst *Vol[T], ox, oy, oz int) {
	s := dst.S
	if ox < 0 || oy < 0 || oz < 0 ||
		ox+s.X > t.S.X || oy+s.Y > t.S.Y || oz+s.Z > t.S.Z {
		panic(fmt.Sprintf("tensor: CropInto %v at (%d,%d,%d) out of range of %v",
			s, ox, oy, oz, t.S))
	}
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			off := t.S.Index(ox, oy+y, oz+z)
			copy(dst.Data[dst.S.Index(0, y, z):dst.S.Index(0, y, z)+s.X],
				t.Data[off:off+s.X])
		}
	}
}

// Dilate spreads the voxels of t onto a sparse lattice with the given
// sparsity: output shape is the FullConv-style expansion
// (n−1)·s + 1 per axis, with t's voxel (x,y,z) stored at (x·sx, y·sy, z·sz)
// and zeros elsewhere. FFT-based sparse convolution dilates the kernel.
func (t *Vol[T]) Dilate(sp Sparsity) *Vol[T] {
	if sp == Dense() {
		return t.Clone()
	}
	s := Shape{
		(t.S.X-1)*sp.X + 1,
		(t.S.Y-1)*sp.Y + 1,
		(t.S.Z-1)*sp.Z + 1,
	}
	d := NewOf[T](s)
	for z := 0; z < t.S.Z; z++ {
		for y := 0; y < t.S.Y; y++ {
			for x := 0; x < t.S.X; x++ {
				d.Data[s.Index(x*sp.X, y*sp.Y, z*sp.Z)] = t.At(x, y, z)
			}
		}
	}
	return d
}

// Subsample extracts every sp-th voxel starting at the given offset,
// producing a tensor of the given shape. It is the adjoint of Dilate.
func (t *Vol[T]) Subsample(ox, oy, oz int, sp Sparsity, s Shape) *Vol[T] {
	r := NewOf[T](s)
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			for x := 0; x < s.X; x++ {
				r.Data[s.Index(x, y, z)] = t.At(ox+x*sp.X, oy+y*sp.Y, oz+z*sp.Z)
			}
		}
	}
	return r
}
