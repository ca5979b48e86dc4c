package fft

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

// plan3RShapes exercises the shapes GoodShape produces: even X with radix
// 2, 3, 4 and 5 halves, odd 5-smooth Y and Z, plus degenerate axes.
var plan3RShapes = []tensor.Shape{
	tensor.S3(8, 6, 4),
	tensor.S3(16, 15, 4), // odd Y
	tensor.S3(6, 25, 27), // odd Y and Z
	tensor.S3(10, 5, 1),
	tensor.S3(1, 9, 4), // X = 1
	tensor.S3(4, 1, 1),
	tensor.S3(1, 1, 1),
	tensor.S3(30, 30, 30),
}

func TestPackedShape(t *testing.T) {
	if got := PackedShape(tensor.S3(8, 6, 4)); got != tensor.S3(5, 6, 4) {
		t.Errorf("PackedShape(8,6,4) = %v, want 5x6x4", got)
	}
	if got := PackedShape(tensor.S3(1, 3, 2)); got != tensor.S3(1, 3, 2) {
		t.Errorf("PackedShape(1,3,2) = %v, want 1x3x2", got)
	}
	if PackedVolume(tensor.S3(8, 6, 4)) != 5*6*4 {
		t.Error("PackedVolume mismatch")
	}
}

func TestPlan3RMatchesPlan3(t *testing.T) {
	// Every packed coefficient must equal the corresponding coefficient
	// of the full complex transform of the same zero-padded input.
	rng := rand.New(rand.NewSource(31))
	for _, s := range plan3RShapes {
		src := tensor.RandomUniform(rng, tensor.Shape{
			X: 1 + rng.Intn(s.X), Y: 1 + rng.Intn(s.Y), Z: 1 + rng.Intn(s.Z)}, -1, 1)
		full := make([]complex128, s.Volume())
		LoadReal(full, s, src)
		NewPlan3(s).Forward(full)

		packed := make([]complex128, PackedVolume(s))
		NewPlan3R(s).Forward(packed, src)

		ps := PackedShape(s)
		for z := 0; z < s.Z; z++ {
			for y := 0; y < s.Y; y++ {
				for x := 0; x < ps.X; x++ {
					got := packed[ps.Index(x, y, z)]
					want := full[s.Index(x, y, z)]
					if e := got - want; math.Hypot(real(e), imag(e)) > 1e-9*float64(s.Volume()) {
						t.Errorf("shape %v at (%d,%d,%d): packed %v, want %v", s, x, y, z, got, want)
					}
				}
			}
		}
	}
}

func TestPlan3RRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, s := range plan3RShapes {
		p := NewPlan3R(s)
		src := tensor.RandomUniform(rng, s, -1, 1)
		packed := make([]complex128, p.PackedLen())
		p.Forward(packed, src)
		got := tensor.New(s)
		p.Inverse(got, packed, 0, 0, 0)
		if d := got.MaxAbsDiff(src); d > 1e-10*float64(s.Volume()) {
			t.Errorf("shape %v: r2c→c2r round-trip error %g", s, d)
		}
	}
}

func TestPlan3RInverseCrop(t *testing.T) {
	// Cropping during the inverse must match StoreReal on the full
	// inverse transform.
	rng := rand.New(rand.NewSource(33))
	s := tensor.S3(8, 6, 5)
	src := tensor.RandomUniform(rng, tensor.S3(5, 4, 3), -1, 1)

	full := make([]complex128, s.Volume())
	LoadReal(full, s, src)
	p3 := NewPlan3(s)
	p3.Forward(full)
	p3.Inverse(full)
	want := tensor.New(tensor.S3(3, 2, 2))
	StoreReal(want, full, s, 2, 3, 1)

	packed := make([]complex128, PackedVolume(s))
	pr := NewPlan3R(s)
	pr.Forward(packed, src)
	got := tensor.New(want.S)
	pr.Inverse(got, packed, 2, 3, 1)

	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("cropped inverse differs from full inverse by %g", d)
	}
}

func TestPlan3RPackedConvolutionTheorem(t *testing.T) {
	// Circular convolution of zero-padded real signals via packed spectra
	// equals the full-spectrum result.
	rng := rand.New(rand.NewSource(34))
	s := tensor.S3(10, 6, 4)
	a := tensor.RandomUniform(rng, tensor.S3(6, 4, 3), -1, 1)
	b := tensor.RandomUniform(rng, tensor.S3(5, 3, 2), -1, 1)

	fa := make([]complex128, s.Volume())
	fb := make([]complex128, s.Volume())
	LoadReal(fa, s, a)
	LoadReal(fb, s, b)
	p3 := NewPlan3(s)
	p3.Forward(fa)
	p3.Forward(fb)
	MulInto(fa, fa, fb)
	p3.Inverse(fa)
	want := tensor.New(s)
	StoreReal(want, fa, s, 0, 0, 0)

	pr := NewPlan3R(s)
	pa := make([]complex128, pr.PackedLen())
	pb := make([]complex128, pr.PackedLen())
	pr.Forward(pa, a)
	pr.Forward(pb, b)
	MulInto(pa, pa, pb)
	got := tensor.New(s)
	pr.Inverse(got, pa, 0, 0, 0)

	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("packed convolution differs from full-spectrum by %g", d)
	}
}

func TestPlan3RValidationPanics(t *testing.T) {
	p := NewPlan3R(tensor.S3(4, 4, 4))
	cases := map[string]func(){
		"fwd short buffer": func() { p.Forward(make([]complex128, 5), tensor.New(tensor.S3(4, 4, 4))) },
		"fwd oversize img": func() { p.Forward(make([]complex128, p.PackedLen()), tensor.New(tensor.S3(5, 4, 4))) },
		"inv short buffer": func() { p.Inverse(tensor.New(tensor.S3(2, 2, 2)), make([]complex128, 5), 0, 0, 0) },
		"inv bad crop": func() {
			p.Inverse(tensor.New(tensor.S3(2, 2, 2)), make([]complex128, p.PackedLen()), 3, 3, 3)
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			f()
		}()
	}
}
