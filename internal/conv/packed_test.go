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

// TestPackedReflectIsSpectrumOfReflection ties the packed conjugate-
// reflection identity to its meaning: reflecting in the spectral domain must
// equal transforming the spatially reflected, re-padded signal — at even X,
// odd 5-smooth Y and Z, and degenerate transform extents.
func TestPackedReflectIsSpectrumOfReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := []struct{ m, support tensor.Shape }{
		{tensor.S3(10, 6, 5), tensor.S3(4, 3, 2)},
		{tensor.S3(8, 6, 4), tensor.S3(3, 2, 2)},
		{tensor.S3(16, 15, 3), tensor.S3(4, 3, 1)}, // odd Y and Z
		{tensor.S3(6, 25, 27), tensor.S3(2, 4, 5)},
		{tensor.S3(6, 1, 1), tensor.S3(3, 1, 1)},
	}
	for _, c := range shapes {
		w := tensor.RandomUniform(rng, c.support, -1, 1)

		pk := make([]complex128, fft.PackedVolume(c.m))
		fft.NewPlan3R(c.m).Forward(pk, w)
		got := make([]complex128, len(pk))
		reflectSpectrumPackedInto(got, pk, c.m, c.support)

		want := make([]complex128, len(pk))
		fft.NewPlan3R(c.m).Forward(want, w.Reflect())

		for i := range got {
			if d := got[i] - want[i]; real(d)*real(d)+imag(d)*imag(d) > tol*tol {
				t.Fatalf("m %v support %v index %d: reflected spectrum %v, want %v",
					c.m, c.support, i, got[i], want[i])
			}
		}
	}
}

func TestPhaseTableCached(t *testing.T) {
	a := phaseTableOf[complex128](12, 4)
	b := phaseTableOf[complex128](12, 4)
	if &a[0] != &b[0] {
		t.Error("phaseTable rebuilt an already-cached table")
	}
	// (K−1) mod M collisions share one table.
	c := phaseTableOf[complex128](12, 16)
	if &a[0] != &c[0] {
		t.Error("phaseTable missed the (M, shift) cache key collapse")
	}
	if len(phaseTableOf[complex128](5, 3)) != 5 {
		t.Error("phaseTable length mismatch")
	}
}

// TestPackedSpectraPoolFootprint is the pool-stats acceptance check for the
// Hermitian-packed layout: one edge's forward, backward and kernel-gradient
// phases hold the two cached kernel spectra plus one in-flight product,
// each of PackedVolume(m) complex128 coefficients — at most half of what the
// same three buffers draw as full-complex volumes (PR 1's 2× result, kept as
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
	if want := int64(3 * mempool.ClassSize(fft.PackedVolume(m)) * 16); peak != want {
		t.Errorf("packed peak pool bytes = %d, want %d (3 packed buffers)", peak, want)
	}
	if full := int64(3 * mempool.ClassSize(m.Volume()) * 16); 2*peak > full {
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
