package conv

import (
	"fmt"

	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

// transformShape returns the common FFT shape used for every phase of a
// convolution edge with input image shape n, kernel shape k and sparsity s:
// fft.GoodShape of the forward full convolution n + s(k−1), the smallest
// covering shape with 5-smooth extents and an even (or unit) X extent —
// exactly the shapes package fft plans.
//
// A single shape per edge is what makes memoization sound: the forward
// image FFT is reusable in the update, and the backward-gradient FFT is
// reusable in the update, because all products are taken at the same
// transform size. The required output regions of each phase are alias-free
// at this size (for the backward pass and the update, see
// Transformer.wrapOffset).
func transformShape(n, k tensor.Shape, sp tensor.Sparsity) tensor.Shape {
	return fft.GoodShape(n.FullConv(k, sp))
}

// fftOf loads t into a pooled Hermitian-packed buffer for transform shape m
// and computes its packed spectrum, which writes every coefficient (so the
// buffer skips the pool's clear). Callers release it with mempool.Spectra.Put.
func fftOf(t *tensor.Tensor, m tensor.Shape, c *Counters) []complex128 {
	buf := mempool.Spectra.GetUncleared(fft.PackedVolume(m))
	fft.NewPlan3R(m).Forward(buf, t)
	c.addFFT(m, false, false)
	return buf
}

// ValidFFT computes the valid sparse convolution via packed real FFTs: both
// operands (kernel dilated) transform to Hermitian-packed spectra at the
// transform shape, multiply pointwise, invert, and crop the valid region at
// offset s(k−1).
func ValidFFT(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	os := img.S.ValidConv(ker.S, sp)
	if !os.Valid() {
		panic(fmt.Sprintf("conv: kernel %v (sparsity %v) does not fit in image %v", ker.S, sp, img.S))
	}
	return fftConv(img, ker, sp, os, img.S.FullConv(ker.S, sp).Sub(img.S))
}

// FullFFT computes the full sparse convolution via packed real FFTs.
func FullFFT(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	return fftConv(img, ker, sp, img.S.FullConv(ker.S, sp), tensor.Shape{})
}

// fftConv is the full convolution at the transform shape, cropped to the
// region of shape os at offset at.
func fftConv(img, ker *tensor.Tensor, sp tensor.Sparsity, os, at tensor.Shape) *tensor.Tensor {
	m := transformShape(img.S, ker.S, sp)
	imgF := fftOf(img, m, nil)
	kerF := fftOf(ker.Dilate(sp), m, nil)
	fft.MulInto(imgF, imgF, kerF)
	mempool.Spectra.Put(kerF)
	out := tensor.New(os)
	fft.NewPlan3R(m).Inverse(out, imgF, at.X, at.Y, at.Z)
	mempool.Spectra.Put(imgF)
	return out
}
