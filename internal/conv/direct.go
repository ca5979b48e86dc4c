// Package conv implements ZNN's convolution engines (Section IV of the
// paper): direct (spatial) convolution, FFT-based convolution, sparse
// (dilated) variants of both, FFT memoization across the forward, backward
// and update phases, and the per-layer autotuner that chooses between the
// direct and FFT methods.
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
// Hermitian-packed spectra and is parameterized by precision: Precision
// selects float64/complex128 (PrecF64, bit-compatible default) or
// float32/complex64 (PrecF32) element types. Spectra of different
// precisions never mix: SpectrumCache keys on (shape, precision), and
// SpectralCompatible requires one precision across a summing node's edges.
// The autotuner's cost model and measured primitives account for the halved
// bandwidth of PrecF32.
//
// # Batch width
//
// A forward sweep takes the round's volumes as a slice, whatever its
// length: SpectrumCache holds a node's images together (Reset) and every
// consuming edge shares the same lazily computed spectrum per (key, volume)
// (GetBatch), and the Transformer's sweeps — ForwardBatch and
// ForwardProducts — fetch the edge's kernel spectrum once and stream it
// through one pointwise product per volume, instead of re-reading it per
// volume. Forward is the one-volume case. Inference-round caches
// additionally run pooled (SetPooled): buffers come from the spectra pool
// of their precision and return through ReleaseAll, the round's release
// hook, so sustained serving traffic produces no per-round spectrum
// garbage; training caches stay GC-managed because memoizing edges retain
// their buffers across the round boundary.
package conv

import (
	"fmt"

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

// ValidDirect computes the valid sparse convolution of img with ker
// directly in the spatial domain. The output shape is n − s(k−1) per axis;
// it panics if the kernel (dilated) does not fit in the image.
func ValidDirect(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	os := img.S.ValidConv(ker.S, sp)
	if !os.Valid() {
		panic(fmt.Sprintf("conv: kernel %v (sparsity %v) does not fit in image %v",
			ker.S, sp, img.S))
	}
	out := tensor.New(os)
	ValidDirectInto(out, img, ker, sp)
	return out
}

// ValidDirectInto computes the valid sparse convolution into a
// caller-provided output tensor of the correct shape. The output is
// overwritten. The loop nest iterates kernel taps on the outside and adds
// shifted image rows on the inside, so the innermost loop walks contiguous
// memory in both operands.
func ValidDirectInto(out, img, ker *tensor.Tensor, sp tensor.Sparsity) {
	os := img.S.ValidConv(ker.S, sp)
	if out.S != os {
		panic(fmt.Sprintf("conv: output shape %v, want %v", out.S, os))
	}
	out.Zero()
	is, ks := img.S, ker.S
	for kz := 0; kz < ks.Z; kz++ {
		for ky := 0; ky < ks.Y; ky++ {
			for kx := 0; kx < ks.X; kx++ {
				w := ker.At(kx, ky, kz)
				if w == 0 {
					continue
				}
				// Image offset for this tap: s·(k−1−a) per axis.
				ox := sp.X * (ks.X - 1 - kx)
				oy := sp.Y * (ks.Y - 1 - ky)
				oz := sp.Z * (ks.Z - 1 - kz)
				for z := 0; z < os.Z; z++ {
					for y := 0; y < os.Y; y++ {
						src := img.Data[is.Index(ox, oy+y, oz+z):]
						dst := out.Data[os.Index(0, y, z):]
						for x := 0; x < os.X; x++ {
							dst[x] += w * src[x]
						}
					}
				}
			}
		}
	}
}

// FullDirect computes the full sparse convolution of img with ker: every
// output voxel for which the (dilated) sliding window overlaps the image.
// The output shape is n + s(k−1) per axis.
func FullDirect(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	out := tensor.New(img.S.FullConv(ker.S, sp))
	FullDirectInto(out, img, ker, sp)
	return out
}

// FullDirectInto computes the full sparse convolution into out, which must
// have shape n + s(k−1). The output is overwritten. Implemented as a
// scatter: each kernel tap adds a scaled copy of the whole image at offset
// s·a, again walking contiguous rows.
func FullDirectInto(out, img, ker *tensor.Tensor, sp tensor.Sparsity) {
	os := img.S.FullConv(ker.S, sp)
	if out.S != os {
		panic(fmt.Sprintf("conv: output shape %v, want %v", out.S, os))
	}
	out.Zero()
	is, ks := img.S, ker.S
	for kz := 0; kz < ks.Z; kz++ {
		for ky := 0; ky < ks.Y; ky++ {
			for kx := 0; kx < ks.X; kx++ {
				w := ker.At(kx, ky, kz)
				if w == 0 {
					continue
				}
				ox, oy, oz := sp.X*kx, sp.Y*ky, sp.Z*kz
				for z := 0; z < is.Z; z++ {
					for y := 0; y < is.Y; y++ {
						src := img.Data[is.Index(0, y, z):]
						dst := out.Data[os.Index(ox, oy+y, oz+z):]
						for x := 0; x < is.X; x++ {
							dst[x] += w * src[x]
						}
					}
				}
			}
		}
	}
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
	for kz := 0; kz < kshape.Z; kz++ {
		for ky := 0; ky < kshape.Y; ky++ {
			for kx := 0; kx < kshape.X; kx++ {
				ox := sp.X * (kshape.X - 1 - kx)
				oy := sp.Y * (kshape.Y - 1 - ky)
				oz := sp.Z * (kshape.Z - 1 - kz)
				var acc float64
				for z := 0; z < bs.Z; z++ {
					for y := 0; y < bs.Y; y++ {
						src := img.Data[is.Index(ox, oy+y, oz+z):]
						b := bwd.Data[bs.Index(0, y, z):]
						for x := 0; x < bs.X; x++ {
							acc += b[x] * src[x]
						}
					}
				}
				g.Set(kx, ky, kz, acc)
			}
		}
	}
	return g
}

// BackwardDirect computes the backward pass of a valid sparse convolution
// directly: the full convolution of the backward image with the reflected
// kernel, yielding the gradient with respect to the edge's input (shape n).
func BackwardDirect(bwd, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	return FullDirect(bwd, ker.Reflect(), sp)
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
