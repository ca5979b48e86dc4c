package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// realLengths are the lengths PlanR serves: 1 and the even testLengths.
func realLengths() []int {
	var ns []int
	for _, n := range testLengths {
		if n == 1 || n%2 == 0 {
			ns = append(ns, n)
		}
	}
	return ns
}

func TestPlanRForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range realLengths() {
		x := randReal(rng, n)
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		want := NaiveDFT(cx, false)
		got := make([]complex128, n/2+1)
		NewPlanR(n).Forward(got, x)
		if e := maxErr(got, want[:n/2+1]); e > 1e-9*float64(n) {
			t.Errorf("n=%d: r2c differs from naive DFT by %g", n, e)
		}
	}
}

func TestPlanRHermitianCompletionMatchesNaive(t *testing.T) {
	// The implied coefficients F[n−k] = conj(F[k]) must agree with the
	// full naive DFT, confirming the packed half really determines the
	// whole spectrum.
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{2, 6, 8, 12, 30, 50} {
		x := randReal(rng, n)
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		want := NaiveDFT(cx, false)
		packed := make([]complex128, n/2+1)
		NewPlanR(n).Forward(packed, x)
		for k := 1; k < n; k++ {
			var got complex128
			if k <= n/2 {
				got = packed[k]
			} else {
				got = cmplx.Conj(packed[n-k])
			}
			if d := got - want[k]; math.Hypot(real(d), imag(d)) > 1e-9*float64(n) {
				t.Errorf("n=%d k=%d: completed coefficient %v, want %v", n, k, got, want[k])
			}
		}
	}
}

func TestPlanRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range realLengths() {
		p := NewPlanR(n)
		x := randReal(rng, n)
		packed := make([]complex128, p.HalfLen())
		p.Forward(packed, x)
		got := make([]float64, n)
		p.Inverse(got, packed)
		var e float64
		for i := range x {
			e = math.Max(e, math.Abs(got[i]-x[i]))
		}
		if e > 1e-10*float64(n) {
			t.Errorf("n=%d: r2c→c2r round-trip error %g", n, e)
		}
	}
}

func TestPlanRInverseScale(t *testing.T) {
	// inverseScaled must multiply the reconstructed signal by the factor.
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 6, 18} {
		p := NewPlanR(n)
		x := randReal(rng, n)
		packed := make([]complex128, p.HalfLen())
		p.Forward(packed, x)
		got := make([]float64, n)
		p.inverseScaled(got, packed, 3)
		for i := range x {
			if math.Abs(got[i]-3*x[i]) > 1e-9 {
				t.Fatalf("n=%d: scaled inverse [%d] = %g, want %g", n, i, got[i], 3*x[i])
			}
		}
	}
}

func TestPlanRLengthMismatchPanics(t *testing.T) {
	p := NewPlanR(8)
	for name, f := range map[string]func(){
		"fwd src": func() { p.Forward(make([]complex128, 5), make([]float64, 7)) },
		"fwd dst": func() { p.Forward(make([]complex128, 4), make([]float64, 8)) },
		"inv src": func() { p.Inverse(make([]float64, 8), make([]complex128, 4)) },
		"inv dst": func() { p.Inverse(make([]float64, 7), make([]complex128, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched lengths did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPlanRCaching(t *testing.T) {
	if NewPlanR(24) != NewPlanR(24) {
		t.Error("NewPlanR did not cache the plan")
	}
}
