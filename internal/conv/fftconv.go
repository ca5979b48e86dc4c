package conv

import (
	"fmt"
	"sync"

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
// at this size (see package doc for the index ranges).
func transformShape(n, k tensor.Shape, sp tensor.Sparsity) tensor.Shape {
	return fft.GoodShape(n.FullConv(k, sp))
}

// fftOf loads t into a pooled Hermitian-packed buffer for transform shape m
// and computes its packed spectrum. Callers release the buffer with
// mempool.Spectra.Put.
func fftOf(t *tensor.Tensor, m tensor.Shape, c *Counters) []complex128 {
	buf := mempool.Spectra.Get(fft.PackedVolume(m))
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

// reflectSpectrumPackedInto computes the spectrum of the reflected-and-
// re-padded signal from the Hermitian-packed spectrum of the original at
// logical transform shape m: for a real signal w with support [0, K−1]
// padded into M, the reflection w[K−1−t] has spectrum
// conj(W[m])·Π_d ω_d^{(K_d−1)·m_d}, a pointwise pass with no extra FFT.
// This is how the backward pass reuses the forward kernel FFT and the
// update reuses the forward image FFT (Table II, memoized column). The
// identity is pointwise at each frequency, so it applies verbatim over the
// packed index range kx = 0 .. X/2 — and the result stays Hermitian because
// the reflected signal is again real.
func reflectSpectrumPackedInto[C fft.Complex](dst, src []C, m, support tensor.Shape) {
	ps := fft.PackedShape(m)
	if len(dst) != ps.Volume() || len(src) != ps.Volume() {
		panic("conv: reflectSpectrumPacked buffer size mismatch")
	}
	px := phaseTableOf[C](m.X, support.X)
	py := phaseTableOf[C](m.Y, support.Y)
	pz := phaseTableOf[C](m.Z, support.Z)
	reflectLoop(dst, src, ps, px, py, pz)
}

// reflectLoop applies dst[i] = conj(src[i])·px[x]·py[y]·pz[z] over the
// iteration shape it (the packed spectrum shape; the phase tables are
// indexed by coordinate). The complex64
// instantiation runs in explicit float32 component arithmetic to dodge the
// compiler's complex64-multiply promotion (see fft's kernels.go).
func reflectLoop[C fft.Complex](dst, src []C, it tensor.Shape, px, py, pz []C) {
	if d64, ok := any(dst).([]complex64); ok {
		reflectLoop64(d64, any(src).([]complex64), it,
			any(px).([]complex64), any(py).([]complex64), any(pz).([]complex64))
		return
	}
	i := 0
	for z := 0; z < it.Z; z++ {
		for y := 0; y < it.Y; y++ {
			pyz := py[y] * pz[z]
			for x := 0; x < it.X; x++ {
				v := complex128(src[i])
				dst[i] = C(complex(real(v), -imag(v))) * (px[x] * pyz)
				i++
			}
		}
	}
}

// reflectLoop64 is the promotion-free complex64 reflection pass.
func reflectLoop64(dst, src []complex64, it tensor.Shape, px, py, pz []complex64) {
	i := 0
	for z := 0; z < it.Z; z++ {
		for y := 0; y < it.Y; y++ {
			a, b := py[y], pz[z]
			pyzR := real(a)*real(b) - imag(a)*imag(b)
			pyzI := real(a)*imag(b) + imag(a)*real(b)
			for x := 0; x < it.X; x++ {
				p := px[x]
				pr := real(p)*pyzR - imag(p)*pyzI
				pi := real(p)*pyzI + imag(p)*pyzR
				v := src[i]
				vr, vi := real(v), -imag(v)
				dst[i] = complex(vr*pr-vi*pi, vr*pi+vi*pr)
				i++
			}
		}
	}
}

// phaseKey identifies a cached phase table by length, shift and precision.
type phaseKey struct {
	m, shift int
	f32      bool
}

var (
	phaseMu    sync.Mutex
	phaseCache = map[phaseKey]any{} // []C
)

// phaseTableOf returns ω_M^{(K−1)·m} for m = 0..M−1 where ω_M = e^{−2πi/M},
// at coefficient type C. Tables are cached by (M, (K−1) mod M, precision):
// the reflection passes run on every backward and update phase, so
// rebuilding the table (and taking the Twiddle lock) per call showed up as
// per-round allocation churn. Tables are computed from the float64 twiddles
// and rounded once, so both precisions agree to float32 accuracy. Callers
// must not modify the returned slice.
func phaseTableOf[C fft.Complex](m, k int) []C {
	shift := (k - 1) % m
	var zero C
	_, f32 := any(zero).(complex64)
	key := phaseKey{m, shift, f32}
	phaseMu.Lock()
	defer phaseMu.Unlock()
	if tab, ok := phaseCache[key]; ok {
		return tab.([]C)
	}
	tab := make([]C, m)
	w := fft.Twiddle(m)
	for i := 0; i < m; i++ {
		tab[i] = C(w[(i*shift)%m])
	}
	phaseCache[key] = tab
	return tab
}
