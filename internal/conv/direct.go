// Package conv implements ZNN's convolution engines (Section IV of the
// paper): direct (spatial) convolution, FFT-based convolution, sparse
// (dilated) variants of both, and FFT memoization across the forward,
// backward and update phases. Which method a layer runs is not decided
// here: internal/plan prices and picks it, and the engine sets it on each
// edge's Transformer.
//
// Convolution semantics follow the paper (and MATLAB): true convolution
// with a flipped kernel. With image size n, kernel size k and sparsity s,
//
//	valid:  out[i] = Σ_a x[i + s(k−1) − s·a]·w[a],  size n − s(k−1)
//	full:   out[m] = Σ_a x[m − s·a]·w[a],           size n + s(k−1)
//
// per axis. The backward pass is a full convolution with the reflected
// kernel, and the kernel gradient is the valid convolution of the
// reflected forward image with the backward image, subsampled at stride s
// (Section III).
//
// The spectral path (Method FFT) runs real-input r2c/c2r transforms over
// Hermitian-packed spectra at a Precision, PrecF64 (default) or PrecF32.
// Spectra of different precisions never mix: SpectrumCache keys on (shape,
// precision), and SpectralCompatible requires one precision per summing node.
//
// # Direct kernels
//
// Direct runs one kernel, which takes a kernel in one form: a TapList, the
// nonzero coefficients in fixed (z, y, x) order with their source offsets.
// Kernel sparsity is therefore not a separate method but an input to
// Direct's cost: the forward and backward passes run only the nonzero taps,
// and LayerGeom.Density scales the planner's estimates.
// Loops are output-outer, tap-inner: the forward pass computes each output
// plane as one run at the image's row stride — the gather
// dst[i] = Σ_t w_t·src[off_t + i], 32 voxels held in eight YMM accumulators
// across every tap — and copies its rows out. The backward pass is the same
// gather over the image zero-padded by s(k−1) in pooled scratch, with the
// reflected tap list read straight off the kernel; the kernel gradient is
// one dot product per tap and backward plane.
//
// Rounding contract: every output voxel is the FMA chain from +0 over its
// taps in list order — in the vector body, in the final block (which
// overlaps its predecessor instead of leaving a tail) and in the math.FMA
// scalar code alike — so its bits do not depend on where a row, plane or
// tile boundary falls, and tiled ≡ single-shot is bitwise. The gradient
// sums in the fixed order documented on dotGo. The AVX2+FMA assembly runs
// when internal/cpu reports VectorOK; otherwise (the purego tag, other
// GOARCHes, pre-AVX2 hosts) the Go twins in kernels.go produce the same
// bits — via math.FMA, slow only on pre-FMA x86.
//
// # Batch width
//
// A forward sweep takes the round's volumes as a slice, whatever its
// length; Forward is the one-volume case. SpectrumCache shares each node
// image's lazily computed spectrum among the consuming edges, and the
// Transformer's sweeps (ForwardBatch, ForwardProducts) fetch the kernel
// spectrum, or build the tap list, once per sweep.
package conv

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"znn/internal/tensor"
)

// checkConvArgs validates common preconditions shared by the direct
// convolution entry points.
func checkConvArgs(img, ker *tensor.Tensor, sp tensor.Sparsity) {
	if !sp.Valid() {
		panic(fmt.Sprintf("conv: invalid sparsity %v", sp))
	}
	if !img.S.Valid() || !ker.S.Valid() {
		panic(fmt.Sprintf("conv: invalid shapes image %v kernel %v", img.S, ker.S))
	}
}

// TapList is the nonzero-tap form of a kernel in (z, y, x) order, which
// fixes every voxel's accumulation order. Its offset scratch makes it
// single-goroutine.
type TapList struct {
	ks  tensor.Shape
	w   []float64 // nonzero coefficients
	at  []int     // their linear indices in the kernel
	off []int     // their source offsets, set by bind
}

// NewTapList scans the kernel once and records its nonzero taps.
func NewTapList(ker *tensor.Tensor) *TapList { return newTapList(ker, false) }

// tapLists recycles the tap lists the hot paths build per call.
var tapLists = sync.Pool{New: func() any { return new(TapList) }}

// newTapList lists the nonzero taps of ker or, with refl, of its reflection
// (reflecting every axis reverses the linear order), without building it.
func newTapList(ker *tensor.Tensor, refl bool) *TapList {
	tl := tapLists.Get().(*TapList)
	tl.ks, tl.w, tl.at = ker.S, tl.w[:0], tl.at[:0]
	last := len(ker.Data) - 1
	for a, w := range ker.Data {
		if refl {
			w = ker.Data[last-a]
		}
		if w != 0 {
			tl.w = append(tl.w, w)
			tl.at = append(tl.at, a)
		}
	}
	return tl
}

// bind sets and returns the taps' source offsets for a valid convolution
// over a source of shape s: s·(k−1−a) per axis.
func (tl *TapList) bind(s tensor.Shape, sp tensor.Sparsity) []int {
	ks := tl.ks
	tl.off = slices.Grow(tl.off[:0], len(tl.at))
	for _, a := range tl.at {
		x, y, z := a%ks.X, a/ks.X%ks.Y, a/(ks.X*ks.Y)
		tl.off = append(tl.off, s.Index(sp.X*(ks.X-1-x), sp.Y*(ks.Y-1-y), sp.Z*(ks.Z-1-z)))
	}
	return tl.off
}

// Len returns the number of nonzero taps.
func (tl *TapList) Len() int { return len(tl.w) }

// KernelShape returns the shape of the kernel the list was built from.
func (tl *TapList) KernelShape() tensor.Shape { return tl.ks }

// Nnz counts the nonzero coefficients of a kernel.
func Nnz(ker *tensor.Tensor) int {
	n := 0
	for _, w := range ker.Data {
		if w != 0 {
			n++
		}
	}
	return n
}

// Density returns the nonzero fraction of a kernel in [0, 1].
func Density(ker *tensor.Tensor) float64 {
	if len(ker.Data) == 0 {
		return 1
	}
	return float64(Nnz(ker)) / float64(len(ker.Data))
}

// scratch holds the direct kernels' work buffers, one free list per
// power-of-two capacity, dirty (users write all they read) and never freed:
// a sync.Pool would drop the padded backward buffers at every GC.
var scratch struct {
	sync.Mutex
	free [bits.UintSize][][]float64
}

func getScratch(n int) []float64 {
	c := bits.Len(uint(n - 1))
	scratch.Lock()
	defer scratch.Unlock()
	if free := scratch.free[c]; len(free) > 0 {
		scratch.free[c] = free[:len(free)-1]
		return free[len(free)-1][:n]
	}
	return make([]float64, n, 1<<c)
}

func putScratch(b []float64) {
	c := bits.Len(uint(cap(b) - 1))
	scratch.Lock()
	scratch.free[c] = append(scratch.free[c], b)
	scratch.Unlock()
}

// padInto writes the box of shape ds into dst: src (shape ss) at offset h,
// zeros everywhere else.
func padInto(dst []float64, ds tensor.Shape, src []float64, ss, h tensor.Shape) {
	for z := 0; z < ds.Z; z++ {
		for y := 0; y < ds.Y; y++ {
			row := dst[ds.Index(0, y, z):][:ds.X]
			sy, sz := y-h.Y, z-h.Z
			if sy < 0 || sy >= ss.Y || sz < 0 || sz >= ss.Z {
				clear(row)
				continue
			}
			clear(row[:h.X])
			copy(row[h.X:], src[ss.Index(0, sy, sz):][:ss.X])
			clear(row[h.X+ss.X:])
		}
	}
}

// ValidDirect computes the valid sparse convolution of img with ker
// directly in the spatial domain. The output shape is n − s(k−1) per axis;
// it panics if the kernel (dilated) does not fit in the image.
func ValidDirect(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	os := img.S.ValidConv(ker.S, sp)
	if !os.Valid() {
		panic(fmt.Sprintf("conv: kernel %v (sparsity %v) does not fit in image %v", ker.S, sp, img.S))
	}
	out := tensor.New(os)
	ValidDirectInto(out, img, ker, sp)
	return out
}

// ValidDirectInto computes the valid sparse convolution into a
// caller-provided output tensor of the correct shape, overwriting it.
func ValidDirectInto(out, img, ker *tensor.Tensor, sp tensor.Sparsity) {
	validInto(out, img, NewTapList(ker), sp)
}

// validInto is the forward gather: each output plane is one run at the
// image's row stride in scratch, whose rows are then copied into out.
func validInto(out, img *tensor.Tensor, tl *TapList, sp tensor.Sparsity) {
	is, os := img.S, img.S.ValidConv(tl.ks, sp)
	if out.S != os {
		panic(fmt.Sprintf("conv: output shape %v, want %v", out.S, os))
	}
	offs := tl.bind(is, sp)
	plane := getScratch((os.Y-1)*is.X + os.X)
	for z := 0; z < os.Z; z++ {
		gather(plane, img.Data[is.Index(0, 0, z):], tl.w, offs)
		for y := 0; y < os.Y; y++ {
			copy(out.Data[os.Index(0, y, z):][:os.X], plane[y*is.X:])
		}
	}
	putScratch(plane)
}

// FullDirect computes the full sparse convolution of img with ker: every
// output voxel for which the (dilated) sliding window overlaps the image.
// The output shape is n + s(k−1) per axis.
func FullDirect(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	out := tensor.New(img.S.FullConv(ker.S, sp))
	fullInto(out, img, NewTapList(ker), sp)
	return out
}

// fullInto is the valid gather over img zero-padded by s(k−1) on every side.
func fullInto(out, img *tensor.Tensor, tl *TapList, sp tensor.Sparsity) {
	os := img.S.FullConv(tl.ks, sp)
	if out.S != os {
		panic(fmt.Sprintf("conv: output shape %v, want %v", out.S, os))
	}
	h := os.Sub(img.S)
	ps := os.Add(h)
	buf := getScratch(ps.Volume())
	padInto(buf, ps, img.Data, img.S, h)
	validInto(out, &tensor.Tensor{S: ps, Data: buf}, tl, sp)
	putScratch(buf)
}

// KernelGradDirect computes the gradient of the loss with respect to the
// kernel of a valid sparse convolution: given the forward input image
// (shape n) and the backward image at the edge's output (shape n−s(k−1)),
// it returns a tensor of the kernel's shape kshape. Each kernel tap's
// gradient is the inner product of the backward image with the
// correspondingly shifted forward image.
func KernelGradDirect(img, bwd *tensor.Tensor, kshape tensor.Shape, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, bwd, sp)
	want := img.S.ValidConv(kshape, sp)
	if bwd.S != want {
		panic(fmt.Sprintf("conv: backward image %v, want %v for image %v kernel %v sparsity %v",
			bwd.S, want, img.S, kshape, sp))
	}
	g := tensor.New(kshape)
	is, bs := img.S, bwd.S
	// Every tap: a zero coefficient still receives a gradient.
	all := tapLists.Get().(*TapList)
	all.ks, all.at = kshape, all.at[:0]
	for a := range g.Data {
		all.at = append(all.at, a)
	}
	offs := all.bind(is, sp)
	// A backward plane at the image's row stride, gaps zeroed; the dots.
	ws, bp := tensor.S3(is.X, bs.Y, 1), tensor.S3(bs.X, bs.Y, 1)
	buf := getScratch(ws.Volume() + len(offs))
	run, part := buf[:(bs.Y-1)*is.X+bs.X], buf[ws.Volume():]
	for z := 0; z < bs.Z; z++ {
		padInto(buf, ws, bwd.Data[bs.Index(0, 0, z):], bp, tensor.Shape{})
		dotTaps(part, run, img.Data[is.Index(0, 0, z):], offs)
		for j, p := range part {
			g.Data[j] += p
		}
	}
	putScratch(buf)
	tapLists.Put(all)
	return g
}

// NaiveValid is an intentionally simple reference implementation used only
// by tests: a literal transcription of the defining sum.
func NaiveValid(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	os := img.S.ValidConv(ker.S, sp)
	out := tensor.New(os)
	ks := ker.S
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				var acc float64
				for c := 0; c < ks.Z; c++ {
					for b := 0; b < ks.Y; b++ {
						for a := 0; a < ks.X; a++ {
							acc += img.At(
								x+sp.X*(ks.X-1-a),
								y+sp.Y*(ks.Y-1-b),
								z+sp.Z*(ks.Z-1-c)) * ker.At(a, b, c)
						}
					}
				}
				out.Set(x, y, z, acc)
			}
		}
	}
	return out
}

// NaiveFull is the reference full convolution used only by tests.
func NaiveFull(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	os := img.S.FullConv(ker.S, sp)
	out := tensor.New(os)
	is, ks := img.S, ker.S
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				var acc float64
				for c := 0; c < ks.Z; c++ {
					for b := 0; b < ks.Y; b++ {
						for a := 0; a < ks.X; a++ {
							ix := x - sp.X*a
							iy := y - sp.Y*b
							iz := z - sp.Z*c
							if ix >= 0 && ix < is.X && iy >= 0 && iy < is.Y && iz >= 0 && iz < is.Z {
								acc += img.At(ix, iy, iz) * ker.At(a, b, c)
							}
						}
					}
				}
				out.Set(x, y, z, acc)
			}
		}
	}
	return out
}
