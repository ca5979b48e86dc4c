package conv

import (
	"math/rand"
	"testing"

	"znn/internal/mempool"
	"znn/internal/tensor"
)

// TestF32TransformerMatchesDirect checks phase-by-phase parity between the
// float32 packed transformer, the float64 packed transformer and the direct
// reference, on randomized geometry including sparse kernels, at the
// float32-scaled tolerance.
func TestF32TransformerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tol := PrecF32.Tol()
	for trial := 0; trial < 20; trial++ {
		img, ker, sp := randGeom(rng)
		bwdShape := img.S.ValidConv(ker.S, sp)
		bwd := tensor.RandomUniform(rng, bwdShape, -1, 1)

		f32 := NewTransformerPrec(img.S, ker.S, sp, FFT, PrecF32, false, nil)
		f64 := NewTransformer(img.S, ker.S, sp, FFT, false, nil)
		if f32.Precision() != PrecF32 || f64.Precision() != PrecF64 {
			t.Fatal("precision not recorded")
		}

		ff := f32.Forward(img, ker, nil)
		fd := ValidDirect(img, ker, sp)
		f6 := f64.Forward(img, ker, nil)
		if d := ff.MaxAbsDiff(fd); d > tol {
			t.Fatalf("trial %d: f32 forward differs from direct by %g (img %v ker %v sp %v)",
				trial, d, img.S, ker.S, sp)
		}
		if d := ff.MaxAbsDiff(f6); d > tol {
			t.Fatalf("trial %d: f32 forward differs from f64 packed by %g", trial, d)
		}

		bf := f32.Backward(bwd, ker, nil)
		b6 := f64.Backward(bwd, ker, nil)
		if d := bf.MaxAbsDiff(b6); d > tol {
			t.Fatalf("trial %d: f32 backward differs from f64 by %g", trial, d)
		}

		gf := f32.KernelGrad(img, bwd)
		gd := KernelGradDirect(img, bwd, ker.S, sp)
		if d := gf.MaxAbsDiff(gd); d > tol {
			t.Fatalf("trial %d: f32 kernel grad differs from direct by %g", trial, d)
		}
	}
}

// TestF32SpectraHalvePoolFootprint is the precision acceptance check: the
// same convolution phases at PrecF32 must draw exactly half the peak bytes
// from their spectra pool that the PrecF64 path draws from its own
// (identical coefficient counts, half the bytes per coefficient).
func TestF32SpectraHalvePoolFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	img := tensor.RandomUniform(rng, tensor.Cube(24), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(5), -0.5, 0.5)
	bwd := tensor.RandomUniform(rng, img.S.ValidConv(ker.S, tensor.Dense()), -1, 1)

	run := func(prec Precision) {
		tr := NewTransformerPrec(img.S, ker.S, tensor.Dense(), FFT, prec, false, nil)
		tr.Forward(img, ker, nil)
		tr.Backward(bwd, ker, nil)
		tr.KernelGrad(img, bwd)
	}

	mempool.Spectra.ResetPeak()
	base64 := mempool.Spectra.Stats().LiveBytes
	run(PrecF64)
	peak64 := mempool.Spectra.Stats().PeakLiveBytes - base64

	mempool.Spectra32.ResetPeak()
	base32 := mempool.Spectra32.Stats().LiveBytes
	run(PrecF32)
	peak32 := mempool.Spectra32.Stats().PeakLiveBytes - base32

	if peak64 <= 0 || peak32 <= 0 {
		t.Fatalf("no pool traffic measured (f64 %d, f32 %d)", peak64, peak32)
	}
	if peak32*2 != peak64 {
		t.Errorf("f32 peak spectra pool bytes = %d, want exactly half of f64 %d", peak32, peak64)
	}
}

// TestSpectrumCachePrecisionKeying verifies one node image keeps distinct
// cached spectra per precision, each computed once.
func TestSpectrumCachePrecisionKeying(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	img := tensor.RandomUniform(rng, tensor.Cube(8), -1, 1)
	var sc SpectrumCache
	sc.Reset(img)
	var c Counters
	m := transformShape(img.S, tensor.Cube(3), tensor.Dense())
	a := sc.Get(m, PrecF64, &c)
	b := sc.Get(m, PrecF32, &c)
	if a.F32() || !b.F32() {
		t.Fatal("cache returned wrong precision arm")
	}
	if a.Len() != b.Len() {
		t.Errorf("packed lengths differ across precisions: %d vs %d", a.Len(), b.Len())
	}
	b2 := sc.Get(m, PrecF32, &c)
	if &b.C64[0] != &b2.C64[0] {
		t.Error("f32 spectrum not cached")
	}
	snap := c.Snapshot()
	if snap.FFTs != 2 {
		t.Errorf("FFT count = %d, want 2 (one per precision)", snap.FFTs)
	}
	if snap.F32FFTs != 1 {
		t.Errorf("F32FFTs = %d, want 1", snap.F32FFTs)
	}
	// The two cached spectra must agree numerically.
	for i := range a.C128 {
		d := a.C128[i] - complex128(b.C64[i])
		if real(d)*real(d)+imag(d)*imag(d) > 1e-8 {
			t.Fatalf("cached spectra diverge at %d: %v vs %v", i, a.C128[i], b.C64[i])
		}
	}
}

// TestSetPrecisionSwitchesPath checks the engine-facing precision switch:
// cached kernel spectra are dropped and subsequent phases run (and agree)
// at the new precision.
func TestSetPrecisionSwitchesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	img := tensor.RandomUniform(rng, tensor.Cube(10), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	tr := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, false, nil)
	out64 := tr.Forward(img, ker, nil)
	tr.SetPrecision(PrecF32)
	if tr.Precision() != PrecF32 {
		t.Fatal("SetPrecision did not take")
	}
	out32 := tr.Forward(img, ker, nil)
	if d := out64.MaxAbsDiff(out32); d > PrecF32.Tol() {
		t.Errorf("f32 forward after switch differs by %g", d)
	}
	// Direct transformers ignore the switch.
	dt := NewTransformer(img.S, ker.S, tensor.Dense(), Direct, false, nil)
	dt.SetPrecision(PrecF32)
	if dt.Precision() != PrecF64 {
		t.Error("direct transformer should stay PrecF64")
	}
}
