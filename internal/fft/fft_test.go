package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"znn/internal/tensor"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Lengths covering every code path: 1, radix-2 only, radix-4, mixed radix,
// radices 3 and 5, and 5-smooth composites, odd and even.
var testLengths = []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27,
	30, 32, 36, 45, 48, 50, 54, 60, 64, 75, 81, 96, 100, 120, 125, 128}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		x := randComplex(rng, n)
		want := NaiveDFT(x, false)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: forward FFT differs from naive DFT by %g", n, e)
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testLengths {
		x := randComplex(rng, n)
		want := NaiveDFT(x, true)
		for i := range want {
			want[i] /= complex(float64(n), 0)
		}
		got := append([]complex128(nil), x...)
		NewPlan(n).Inverse(got)
		if e := maxErr(got, want); e > 1e-9 {
			t.Errorf("n=%d: inverse FFT differs from naive IDFT by %g", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testLengths {
		p := NewPlan(n)
		x := randComplex(rng, n)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		p.Inverse(got)
		if e := maxErr(got, x); e > 1e-10*float64(n) {
			t.Errorf("n=%d: forward+inverse round trip error %g", n, e)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testLengths {
		x := randComplex(rng, n)
		var tim float64
		for _, v := range x {
			tim += real(v)*real(v) + imag(v)*imag(v)
		}
		X := append([]complex128(nil), x...)
		NewPlan(n).Forward(X)
		var freq float64
		for _, v := range X {
			freq += real(v)*real(v) + imag(v)*imag(v)
		}
		freq /= float64(n)
		if math.Abs(tim-freq) > 1e-8*(1+tim) {
			t.Errorf("n=%d: Parseval violated: time %g vs freq %g", n, tim, freq)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := testLengths[r.Intn(len(testLengths))]
		p := NewPlan(n)
		a, b := randComplex(r, n), randComplex(r, n)
		alpha := complex(r.Float64()*2-1, r.Float64()*2-1)
		// FFT(alpha*a + b)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = alpha*a[i] + b[i]
		}
		p.Forward(lhs)
		// alpha*FFT(a) + FFT(b)
		fa := append([]complex128(nil), a...)
		fb := append([]complex128(nil), b...)
		p.Forward(fa)
		p.Forward(fb)
		for i := range fa {
			fa[i] = alpha*fa[i] + fb[i]
		}
		return maxErr(lhs, fa) <= 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestImpulseTransform(t *testing.T) {
	// FFT of a unit impulse at 0 is all ones; at position j it is the
	// complex exponential.
	for _, n := range []int{4, 6, 9, 15, 20} {
		p := NewPlan(n)
		x := make([]complex128, n)
		x[0] = 1
		p.Forward(x)
		for k, v := range x {
			if cmplx.Abs(v-1) > 1e-12 {
				t.Errorf("n=%d: impulse FFT[%d] = %v, want 1", n, k, v)
			}
		}
	}
}

func TestConstantTransform(t *testing.T) {
	for _, n := range []int{4, 6, 9, 15, 20} {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = 1
		}
		p.Forward(x)
		if cmplx.Abs(x[0]-complex(float64(n), 0)) > 1e-9 {
			t.Errorf("n=%d: DC bin = %v, want %d", n, x[0], n)
		}
		for k := 1; k < n; k++ {
			if cmplx.Abs(x[k]) > 1e-9 {
				t.Errorf("n=%d: bin %d = %v, want 0", n, k, x[k])
			}
		}
	}
}

func TestPlanCaching(t *testing.T) {
	if NewPlan(64) != NewPlan(64) {
		t.Error("NewPlan did not cache plans")
	}
	if NewPlan3R(tensor.Cube(8)) != NewPlan3R(tensor.Cube(8)) {
		t.Error("NewPlan3R did not cache plans")
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("transform with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex128, 7))
}

// TestNewPlanPanicsOnBadLength: a length no plan serves panics, and the
// message names what is wrong or the function that pads the length to one
// that is served.
func TestNewPlanPanicsOnBadLength(t *testing.T) {
	for _, c := range []struct {
		name, want string
		f          func()
	}{
		{"NewPlan(0)", "invalid transform length", func() { NewPlan(0) }},
		{"NewPlan(7)", "GoodSize", func() { NewPlan(7) }},
		{"NewPlan(22)", "GoodSize", func() { NewPlan(22) }},
		{"NewPlanR(15)", "GoodShape", func() { NewPlanR(15) }},
		{"NewPlanROf[float32](9)", "GoodShape", func() { NewPlanROf[float32, complex64](9) }},
		{"NewPlan3R(7x4x4)", "GoodShape", func() { NewPlan3R(tensor.S3(7, 4, 4)) }},
		{"NewPlan3R(8x7x4)", "GoodSize", func() { NewPlan3R(tensor.S3(8, 7, 4)) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s did not panic", c.name)
					return
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Errorf("%s panicked with %q, which does not name %s", c.name, msg, c.want)
				}
			}()
			c.f()
		}()
	}
}

func TestGoodSize(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 6: 6, 7: 8, 11: 12, 13: 15, 17: 18,
		31: 32, 33: 36, 97: 100, 101: 108, 121: 125}
	for in, want := range cases {
		if got := GoodSize(in); got != want {
			t.Errorf("GoodSize(%d) = %d, want %d", in, got, want)
		}
	}
	// Result is always 5-smooth and ≥ n.
	for n := 1; n < 300; n++ {
		g := GoodSize(n)
		if g < n {
			t.Fatalf("GoodSize(%d) = %d < n", n, g)
		}
		if _, rem := factorize(g); rem != 1 {
			t.Fatalf("GoodSize(%d) = %d is not 5-smooth", n, g)
		}
	}
}

func TestFactorize(t *testing.T) {
	for n := 1; n <= 1000; n++ {
		factors, rem := factorize(n)
		prod := rem
		for _, f := range factors {
			if f != 2 && f != 3 && f != 4 && f != 5 {
				t.Fatalf("factorize(%d) produced invalid factor %d", n, f)
			}
			prod *= f
		}
		if prod != n {
			t.Fatalf("factorize(%d): product %d != n", n, prod)
		}
		if rem%2 == 0 || rem%3 == 0 || rem%5 == 0 {
			if rem != 1 {
				t.Fatalf("factorize(%d): remainder %d still smooth-divisible", n, rem)
			}
		}
	}
}

func TestConcurrentPlanUse(t *testing.T) {
	// A single plan must be usable from many goroutines at once.
	p := NewPlan(60)
	rng := rand.New(rand.NewSource(7))
	x := randComplex(rng, 60)
	want := append([]complex128(nil), x...)
	p.Forward(want)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				got := append([]complex128(nil), x...)
				p.Forward(got)
				if maxErr(got, want) > 1e-12 {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent transform mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }
