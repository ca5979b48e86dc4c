package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

// naiveDFT3 computes the 3D DFT directly from the definition.
func naiveDFT3(buf []complex128, s tensor.Shape, inverse bool) []complex128 {
	tmp := append([]complex128(nil), buf...)
	// Transform along x.
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			line := make([]complex128, s.X)
			for x := 0; x < s.X; x++ {
				line[x] = tmp[s.Index(x, y, z)]
			}
			out := NaiveDFT(line, inverse)
			for x := 0; x < s.X; x++ {
				tmp[s.Index(x, y, z)] = out[x]
			}
		}
	}
	// Along y.
	for z := 0; z < s.Z; z++ {
		for x := 0; x < s.X; x++ {
			line := make([]complex128, s.Y)
			for y := 0; y < s.Y; y++ {
				line[y] = tmp[s.Index(x, y, z)]
			}
			out := NaiveDFT(line, inverse)
			for y := 0; y < s.Y; y++ {
				tmp[s.Index(x, y, z)] = out[y]
			}
		}
	}
	// Along z.
	for y := 0; y < s.Y; y++ {
		for x := 0; x < s.X; x++ {
			line := make([]complex128, s.Z)
			for z := 0; z < s.Z; z++ {
				line[z] = tmp[s.Index(x, y, z)]
			}
			out := NaiveDFT(line, inverse)
			for z := 0; z < s.Z; z++ {
				tmp[s.Index(x, y, z)] = out[z]
			}
		}
	}
	return tmp
}

func TestPlan3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []tensor.Shape{
		tensor.S3(4, 4, 4),
		tensor.S3(8, 6, 5),
		tensor.S3(3, 15, 2),
		tensor.S3(1, 9, 4),
		tensor.S3(5, 1, 1),
		tensor.S3(1, 1, 1),
	}
	for _, s := range shapes {
		buf := randComplex(rng, s.Volume())
		want := naiveDFT3(buf, s, false)
		got := append([]complex128(nil), buf...)
		NewPlan3(s).Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(s.Volume()) {
			t.Errorf("shape %v: 3D FFT differs from naive by %g", s, e)
		}
	}
}

func TestPlan3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range []tensor.Shape{tensor.S3(8, 8, 8), tensor.S3(6, 10, 3), tensor.S3(2, 2, 9)} {
		p := NewPlan3(s)
		buf := randComplex(rng, s.Volume())
		got := append([]complex128(nil), buf...)
		p.Forward(got)
		p.Inverse(got)
		if e := maxErr(got, buf); e > 1e-10*float64(s.Volume()) {
			t.Errorf("shape %v: 3D round trip error %g", s, e)
		}
	}
}

func TestPlan3SeparabilityOfImpulse(t *testing.T) {
	// FFT of a 3D unit impulse at the origin is the all-ones volume.
	s := tensor.S3(4, 6, 3)
	buf := make([]complex128, s.Volume())
	buf[0] = 1
	NewPlan3(s).Forward(buf)
	for i, v := range buf {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT at %d = %v, want 1", i, v)
		}
	}
}

func TestGoodShape(t *testing.T) {
	for in, want := range map[tensor.Shape]tensor.Shape{
		tensor.S3(7, 11, 31):  tensor.S3(8, 12, 32),
		tensor.S3(15, 15, 15): tensor.S3(16, 15, 15),
		tensor.S3(45, 45, 15): tensor.S3(48, 45, 15),
		tensor.S3(1, 27, 25):  tensor.S3(1, 27, 25),
		tensor.S3(3, 1, 1):    tensor.S3(4, 1, 1),
	} {
		if got := GoodShape(in); got != want {
			t.Errorf("GoodShape(%v) = %v, want %v", in, got, want)
		}
	}
	// For every extent n = 1 … 512, each result extent is ≥ n and 5-smooth,
	// X is even unless it is 1, and no smaller extent with those properties
	// exists: every shape GoodShape returns has a plan, and none is padded
	// further than it needs to be.
	smooth := func(m int) bool { _, rem := factorize(m); return rem == 1 }
	servedX := func(m int) bool { return smooth(m) && (m == 1 || m%2 == 0) }
	for n := 1; n <= 512; n++ {
		g := GoodShape(tensor.S3(n, n, n))
		for _, c := range []struct {
			axis   string
			got    int
			served func(int) bool
		}{{"X", g.X, servedX}, {"Y", g.Y, smooth}, {"Z", g.Z, smooth}} {
			if c.got < n || !c.served(c.got) {
				t.Fatalf("GoodShape(%d³).%s = %d: not a served extent ≥ %d", n, c.axis, c.got, n)
			}
			for m := n; m < c.got; m++ {
				if c.served(m) {
					t.Fatalf("GoodShape(%d³).%s = %d, but %d is smaller and served", n, c.axis, c.got, m)
				}
			}
		}
	}
}

func TestLoadStoreReal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := tensor.RandomUniform(rng, tensor.S3(3, 4, 2), -1, 1)
	s := tensor.S3(5, 6, 4)
	buf := make([]complex128, s.Volume())
	// Poison the buffer to verify LoadReal clears it.
	for i := range buf {
		buf[i] = complex(99, 99)
	}
	LoadReal(buf, s, src)
	if buf[s.Index(4, 5, 3)] != 0 {
		t.Error("LoadReal did not zero the padding")
	}
	got := tensor.New(src.S)
	StoreReal(got, buf, s, 0, 0, 0)
	if !got.Equal(src) {
		t.Error("StoreReal(LoadReal) is not the identity")
	}
}

func TestStoreRealOffset(t *testing.T) {
	s := tensor.S3(4, 4, 4)
	buf := make([]complex128, s.Volume())
	for i := range buf {
		buf[i] = complex(float64(i), 0)
	}
	dst := tensor.New(tensor.S3(2, 2, 2))
	StoreReal(dst, buf, s, 1, 1, 1)
	if dst.At(0, 0, 0) != float64(s.Index(1, 1, 1)) {
		t.Errorf("StoreReal offset wrong: got %v", dst.At(0, 0, 0))
	}
	if dst.At(1, 1, 1) != float64(s.Index(2, 2, 2)) {
		t.Errorf("StoreReal extent wrong: got %v", dst.At(1, 1, 1))
	}
}

func TestStoreRealOutOfRangePanics(t *testing.T) {
	s := tensor.S3(4, 4, 4)
	buf := make([]complex128, s.Volume())
	dst := tensor.New(tensor.S3(2, 2, 2))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range StoreReal did not panic")
		}
	}()
	StoreReal(dst, buf, s, 3, 3, 3)
}

func TestMulInto(t *testing.T) {
	a := []complex128{1, 2i, 3}
	b := []complex128{2, 3, -1i}
	dst := make([]complex128, 3)
	MulInto(dst, a, b)
	want := []complex128{2, 6i, -3i}
	if maxErr(dst, want) > 0 {
		t.Errorf("MulInto = %v, want %v", dst, want)
	}
	MulAccInto(dst, a, b)
	want = []complex128{4, 12i, -6i}
	if maxErr(dst, want) > 0 {
		t.Errorf("MulAccInto = %v, want %v", dst, want)
	}
}

func TestConvolutionTheorem1D(t *testing.T) {
	// Circular convolution via FFT equals direct circular convolution.
	rng := rand.New(rand.NewSource(4))
	n := 12
	p := NewPlan(n)
	a, b := randComplex(rng, n), randComplex(rng, n)
	// Direct circular convolution.
	want := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += a[j] * b[((i-j)%n+n)%n]
		}
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	p.Forward(fa)
	p.Forward(fb)
	MulInto(fa, fa, fb)
	p.Inverse(fa)
	if e := maxErr(fa, want); e > 1e-9 {
		t.Errorf("convolution theorem violated by %g", e)
	}
}
