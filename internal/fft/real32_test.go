package fft

import (
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

// tol32 bounds the error of float32 transforms: a forward/inverse round
// trip accumulates O(eps·log n) relative error with eps ≈ 1.2e-7.
const tol32 = 1e-4

// TestPlanR32RoundTrip checks forward+inverse identity for the float32 r2c
// plan across the lengths it serves, with radix-2, 3, 4 and 5 halves.
func TestPlanR32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 6, 8, 10, 16, 18, 30, 48, 50, 54, 96} {
		p := NewPlanROf[float32, complex64](n)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.Float64()*2 - 1)
		}
		spec := make([]complex64, p.HalfLen())
		p.Forward(spec, src)
		got := make([]float32, n)
		p.Inverse(got, spec)
		for i := range src {
			if d := float64(got[i] - src[i]); d > tol32 || d < -tol32 {
				t.Fatalf("n=%d: round trip [%d] = %g, want %g", n, i, got[i], src[i])
			}
		}
	}
}

// TestPlanR32MatchesPlanR64 pins the float32 half-spectrum against the
// float64 one coefficient by coefficient.
func TestPlanR32MatchesPlanR64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 6, 12, 20, 30} {
		src64 := make([]float64, n)
		src32 := make([]float32, n)
		for i := range src64 {
			src64[i] = rng.Float64()*2 - 1
			src32[i] = float32(src64[i])
		}
		p64 := NewPlanR(n)
		p32 := NewPlanROf[float32, complex64](n)
		spec64 := make([]complex128, p64.HalfLen())
		spec32 := make([]complex64, p32.HalfLen())
		p64.Forward(spec64, src64)
		p32.Forward(spec32, src32)
		for k := range spec64 {
			d := spec64[k] - complex128(spec32[k])
			if real(d)*real(d)+imag(d)*imag(d) > tol32*tol32*float64(n*n) {
				t.Fatalf("n=%d k=%d: f32 spectrum %v, f64 %v", n, k, spec32[k], spec64[k])
			}
		}
	}
}

// TestPlan3R32MatchesPlan3R64 checks the packed 3D float32 transform
// against the float64 reference, over even-X shapes with odd 5-smooth Y and
// Z extents, with zero-padding and cropped inverse.
func TestPlan3R32MatchesPlan3R64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []tensor.Shape{
		tensor.S3(8, 6, 4),
		tensor.S3(16, 15, 3), // odd Y and Z
		tensor.S3(10, 25, 27),
		tensor.S3(12, 1, 1),
		tensor.S3(30, 30, 30),
	}
	for _, m := range shapes {
		img := tensor.RandomUniform(rng, tensor.S3(max(m.X-2, 1), max(m.Y-1, 1), m.Z), -1, 1)
		img32 := tensor.ConvertOf[float32](img)

		p64 := NewPlan3R(m)
		p32 := NewPlan3ROf[float32, complex64](m)
		spec64 := make([]complex128, p64.PackedLen())
		spec32 := make([]complex64, p32.PackedLen())
		p64.Forward(spec64, img)
		p32.Forward(spec32, img32)
		scale := float64(m.Volume())
		for i := range spec64 {
			d := spec64[i] - complex128(spec32[i])
			if real(d)*real(d)+imag(d)*imag(d) > tol32*tol32*scale*scale {
				t.Fatalf("shape %v: spectrum [%d] f32 %v vs f64 %v", m, i, spec32[i], spec64[i])
			}
		}

		out64 := tensor.New(img.S)
		out32 := tensor.NewOf[float32](img.S)
		p64.Inverse(out64, spec64, 0, 0, 0)
		p32.Inverse(out32, spec32, 0, 0, 0)
		for i := range out64.Data {
			if d := out64.Data[i] - float64(out32.Data[i]); d > tol32 || d < -tol32 {
				t.Fatalf("shape %v: inverse [%d] f32 %g vs f64 %g", m, i, out32.Data[i], out64.Data[i])
			}
		}
	}
}

// TestSpectrumAddAndMul covers the dtype-tagged Spectrum operations on both
// arms, including the panic on mixed-precision addition.
func TestSpectrumAddAndMul(t *testing.T) {
	a64 := Spec128([]complex128{1 + 2i, 3})
	b64 := Spec128([]complex128{2, 1i})
	a64.Add(b64)
	if a64.C128[0] != 3+2i || a64.C128[1] != 3+1i {
		t.Errorf("f64 Add got %v", a64.C128)
	}
	a32 := Spec64([]complex64{1 + 1i, 2})
	b32 := Spec64([]complex64{1, 1})
	MulSpecInto(a32, a32, b32)
	if a32.C64[0] != 1+1i || a32.C64[1] != 2 {
		t.Errorf("f32 MulSpecInto got %v", a32.C64)
	}
	if a32.Len() != 2 || !a32.F32() || a64.F32() {
		t.Error("Spectrum metadata wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("mixed-precision Add did not panic")
		}
	}()
	a64.Add(a32)
}
