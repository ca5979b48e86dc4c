package conv

import (
	"math/rand"
	"testing"

	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

// TestPackedTransformerMatchesDirect checks phase-by-phase parity between
// the packed FFT transformer and the direct reference, on randomized
// geometry including sparse kernels.
func TestPackedTransformerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		img, ker, sp := randGeom(rng)
		bwdShape := img.S.ValidConv(ker.S, sp)
		bwd := tensor.RandomUniform(rng, bwdShape, -1, 1)

		packed := NewTransformer(img.S, ker.S, sp, FFT, false, nil)

		if d := packed.Forward(img, ker, nil).MaxAbsDiff(ValidDirect(img, ker, sp)); d > tol {
			t.Fatalf("trial %d: packed forward differs from direct by %g (img %v ker %v sp %v)",
				trial, d, img.S, ker.S, sp)
		}
		if d := packed.Backward(bwd, ker, nil).MaxAbsDiff(FullDirect(bwd, ker.Reflect(), sp)); d > tol {
			t.Fatalf("trial %d: packed backward differs from direct by %g", trial, d)
		}
		if d := packed.KernelGrad(img, bwd).MaxAbsDiff(KernelGradDirect(img, bwd, ker.S, sp)); d > tol {
			t.Fatalf("trial %d: packed kernel grad differs from direct by %g", trial, d)
		}
	}
}

// TestPackedSpectraPoolFootprint is the pool-stats acceptance check for the
// Hermitian-packed layout: one edge's forward, backward and kernel-gradient
// phases hold the cached kernel spectrum plus one in-flight product,
// each of PackedVolume(m) complex128 coefficients — at most half of what the
// same two buffers draw as full-complex volumes (the packed layout's 2×, kept as
// a closed-form bound now that the full-complex path is gone).
func TestPackedSpectraPoolFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	img := tensor.RandomUniform(rng, tensor.Cube(24), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(5), -0.5, 0.5)
	bwd := tensor.RandomUniform(rng, img.S.ValidConv(ker.S, tensor.Dense()), -1, 1)

	tr := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, false, nil)
	mempool.Spectra.ResetPeak()
	base := mempool.Spectra.Stats().LiveBytes
	tr.Forward(img, ker, nil)
	tr.Backward(bwd, ker, nil)
	tr.KernelGrad(img, bwd)
	peak := mempool.Spectra.Stats().PeakLiveBytes - base

	m := tr.TransformShape()
	if want := int64(2 * mempool.ClassSize(fft.PackedVolume(m)) * 16); peak != want {
		t.Errorf("packed peak pool bytes = %d, want %d (2 packed buffers)", peak, want)
	}
	if full := int64(2 * mempool.ClassSize(m.Volume()) * 16); 2*peak > full {
		t.Errorf("packed peak pool bytes = %d, want ≤ half of the full-complex layout's %d", peak, full)
	}
}

// TestValidFullFFTParityAtTransformShapeClasses pins ValidFFT/FullFFT
// against the direct reference at geometries engineered to produce even,
// odd and degenerate 5-smooth transform shapes (transformShape always
// returns 5-smooth sizes, so the odd r2c fallback is reached via e.g.
// 11+4 = 15), including sparse kernels.
func TestValidFullFFTParityAtTransformShapeClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cases := []struct {
		in, k tensor.Shape
		sp    tensor.Sparsity
	}{
		{tensor.S3(6, 6, 6), tensor.S3(3, 3, 3), tensor.Dense()},                     // 8³ even
		{tensor.S3(11, 11, 11), tensor.S3(5, 5, 5), tensor.Dense()},                  // 15³ odd
		{tensor.S3(11, 6, 1), tensor.S3(5, 3, 1), tensor.Dense()},                    // mixed odd/even, 2D
		{tensor.S3(21, 3, 3), tensor.S3(3, 2, 2), tensor.Dense()},                    // 25·4·4 odd X
		{tensor.S3(7, 7, 7), tensor.S3(3, 3, 3), tensor.Uniform(2)},                  // sparse, 11→12 even
		{tensor.S3(13, 5, 5), tensor.S3(2, 2, 2), tensor.Sparsity{X: 2, Y: 1, Z: 1}}, // 15·6·6
	}
	for _, c := range cases {
		img := tensor.RandomUniform(rng, c.in, -1, 1)
		ker := tensor.RandomUniform(rng, c.k, -1, 1)
		m := transformShape(c.in, c.k, c.sp)
		if gv, gm := ValidFFT(img, ker, c.sp), ValidDirect(img, ker, c.sp); gv.MaxAbsDiff(gm) > tol {
			t.Errorf("ValidFFT in %v k %v sp %v (transform %v): differs from direct by %g",
				c.in, c.k, c.sp, m, gv.MaxAbsDiff(gm))
		}
		if gf, gm := FullFFT(img, ker, c.sp), FullDirect(img, ker, c.sp); gf.MaxAbsDiff(gm) > tol {
			t.Errorf("FullFFT in %v k %v sp %v (transform %v): differs from direct by %g",
				c.in, c.k, c.sp, m, gf.MaxAbsDiff(gm))
		}
	}
}
