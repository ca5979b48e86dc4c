package fft

import (
	"math"
	"math/rand"
	"slices"
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
		"inv offset at extent": func() {
			p.Inverse(tensor.New(tensor.S3(2, 2, 2)), make([]complex128, p.PackedLen()), 0, 4, 0)
		},
		"inv negative offset": func() {
			p.Inverse(tensor.New(tensor.S3(2, 2, 2)), make([]complex128, p.PackedLen()), 0, 0, -1)
		},
		"inv crop larger than plan": func() {
			p.Inverse(tensor.New(tensor.S3(5, 2, 2)), make([]complex128, p.PackedLen()), 0, 0, 0)
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

// TestPlan3RPrunedMatchesFull pins the pruned Y pass as exact, the way
// convolution uses it on kernels: the forward of a 7³ source into 24³, 30³
// and 36³ must equal, element for element, the forward of the same data
// zero-padded to the full shape (which runs every Y slab), and the inverse
// cropped to 7³ at KernelGrad's offset (out−1 = n−13 for an n−6 image) must
// equal the full inverse, then cropped. Both precisions, on whichever
// kernels are installed.
func TestPlan3RPrunedMatchesFull(t *testing.T) {
	testPruned[float64, complex128](t, "f64")
	testPruned[float32, complex64](t, "f32")
}

func testPruned[R tensor.Real, C Complex](t *testing.T, name string) {
	rng := rand.New(rand.NewSource(37))
	k := tensor.Cube(7)
	for _, n := range []int{24, 30, 36} {
		s := tensor.Cube(n)
		p := NewPlan3ROf[R, C](s)
		src := tensor.NewOf[R](k)
		padded := tensor.NewOf[R](s)
		for z := 0; z < k.Z; z++ {
			for y := 0; y < k.Y; y++ {
				for x := 0; x < k.X; x++ {
					v := R(rng.Float64()*2 - 1)
					src.Data[k.Index(x, y, z)] = v
					padded.Data[s.Index(x, y, z)] = v
				}
			}
		}
		got := make([]C, p.PackedLen())
		want := make([]C, p.PackedLen())
		p.Forward(got, src)
		p.Forward(want, padded)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d: pruned forward[%d] = %v, full %v", name, n, i, got[i], want[i])
			}
		}

		dense := tensor.NewOf[R](s)
		for i := range dense.Data {
			dense.Data[i] = R(rng.Float64()*2 - 1)
		}
		p.Forward(want, dense)
		copy(got, want)
		o := n - 13
		crop := tensor.NewOf[R](k)
		p.Inverse(crop, got, o, o, o)
		full := tensor.NewOf[R](s)
		p.Inverse(full, want, 0, 0, 0)
		for z := 0; z < k.Z; z++ {
			for y := 0; y < k.Y; y++ {
				for x := 0; x < k.X; x++ {
					g, w := crop.Data[k.Index(x, y, z)], full.Data[s.Index(o+x, o+y, o+z)]
					if g != w {
						t.Fatalf("%s n=%d: pruned inverse (%d,%d,%d) = %v, full %v", name, n, x, y, z, g, w)
					}
				}
			}
		}
	}
}

// TestPlan3RWrappedCropMatchesFull pins the circular crop of Inverse and
// InverseF64 as exact: at offsets that wrap, the cropped inverse must
// equal, bit for bit, the circular extraction of the full-shape inverse,
// in both precisions. The cases wrap every axis with a crop whose Y rows
// 12, 13, 14, 0, 1, 2 would share one 8-row block, have an X extent of 1,
// and have a zero-halo Z axis (a k×k×1 kernel's: offset 0, as the
// backward pass and the kernel gradient crop it), the last with the whole
// plan rotated in X and Y.
func TestPlan3RWrappedCropMatchesFull(t *testing.T) {
	testWrappedCrop[float64, complex128](t)
	testWrappedCrop[float32, complex64](t)
}

func testWrappedCrop[R tensor.Real, C Complex](t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bits := func(v R) uint64 { return math.Float64bits(float64(v)) }
	for _, c := range []struct {
		s, crop    tensor.Shape
		ox, oy, oz int
	}{
		{tensor.S3(12, 15, 10), tensor.S3(7, 6, 5), 9, 12, 8},
		{tensor.S3(1, 12, 9), tensor.S3(1, 10, 4), 0, 5, 7},
		{tensor.S3(16, 18, 5), tensor.S3(13, 13, 1), 12, 14, 0},
		{tensor.S3(10, 6, 5), tensor.S3(10, 6, 3), 3, 2, 0},
	} {
		p := NewPlan3ROf[R, C](c.s)
		src := tensor.NewOf[R](c.s)
		for i := range src.Data {
			src.Data[i] = R(rng.Float64()*2 - 1)
		}
		spec := make([]C, p.PackedLen())
		p.Forward(spec, src)
		full := tensor.NewOf[R](c.s)
		p.Inverse(full, slices.Clone(spec), 0, 0, 0)
		crop := tensor.NewOf[R](c.crop)
		p.Inverse(crop, slices.Clone(spec), c.ox, c.oy, c.oz)
		crop64 := tensor.New(c.crop)
		p.InverseF64(crop64, slices.Clone(spec), c.ox, c.oy, c.oz)
		for z := 0; z < c.crop.Z; z++ {
			for y := 0; y < c.crop.Y; y++ {
				for x := 0; x < c.crop.X; x++ {
					w := full.Data[c.s.Index((c.ox+x)%c.s.X, (c.oy+y)%c.s.Y, (c.oz+z)%c.s.Z)]
					i := c.crop.Index(x, y, z)
					if bits(crop.Data[i]) != bits(w) || math.Float64bits(crop64.Data[i]) != bits(w) {
						t.Fatalf("%T %v crop %v at (%d,%d,%d): (%d,%d,%d) is %v (F64 %v), full inverse %v",
							w, c.s, c.crop, c.ox, c.oy, c.oz, x, y, z, crop.Data[i], crop64.Data[i], w)
					}
				}
			}
		}
	}
}

// TestPlan3RLaneMatchesNaiveDFT checks the lane-batched float64 packed
// transform against the separable naive DFT: the forward spectrum
// coefficient by coefficient and the inverse by round trip. The shapes are
// train_fft7's 30³, a 7×12×30 source padded into its 8×12×30 GoodShape
// (the pruned X pass), and length-1 axes.
func TestPlan3RLaneMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, src := range []*tensor.Tensor{
		tensor.RandomUniform(rng, tensor.Cube(30), -1, 1),
		tensor.RandomUniform(rng, tensor.S3(7, 12, 30), -1, 1),
		tensor.RandomUniform(rng, tensor.S3(1, 12, 30), -1, 1),
		tensor.RandomUniform(rng, tensor.S3(16, 12, 1), -1, 1),
	} {
		s := GoodShape(src.S)
		full := make([]complex128, s.Volume())
		LoadReal(full, s, src)
		NaiveDFT3(full, s, false)
		tol := 1e-12 * float64(s.Volume())
		p := NewPlan3R(s)
		packed := make([]complex128, p.PackedLen())
		p.Forward(packed, src)
		ps := PackedShape(s)
		for i, got := range packed {
			x, y, z := i%ps.X, i/ps.X%ps.Y, i/(ps.X*ps.Y)
			if e := got - full[s.Index(x, y, z)]; math.Hypot(real(e), imag(e)) > tol {
				t.Fatalf("%v in %v at (%d,%d,%d): packed %v, want %v", src.S, s, x, y, z, got, full[s.Index(x, y, z)])
			}
		}
		back := tensor.New(src.S)
		p.Inverse(back, packed, 0, 0, 0)
		if d := back.MaxAbsDiff(src); d > 1e-12 {
			t.Errorf("%v in %v: round trip differs by %g", src.S, s, d)
		}
	}
}
