package fft

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"znn/internal/cpu"
)

// The differential parity suite fuzzes the dispatchable kernel pairs
// against each other: whatever implementation is installed (AVX2 on capable
// hosts, Go lanes under purego) must agree with the scalar reference at
// float32 tolerance across lengths (radix-2/4 mixes, radix-3/5 tails, odd
// sizes), unaligned slice offsets, and both twiddle directions. The AVX2
// kernels use FMA, so results are compared at a relative tolerance rather
// than bitwise.

const kernelTol = 1e-5 // float32 kernels; matches conv.PrecF32.Tol scale

func c64Near(t *testing.T, what string, i int, got, want complex64) {
	t.Helper()
	gr, gi := float64(real(got)), float64(imag(got))
	wr, wi := float64(real(want)), float64(imag(want))
	mag := math.Hypot(wr, wi)
	if mag < 1 {
		mag = 1
	}
	if math.Hypot(gr-wr, gi-wi) > kernelTol*mag {
		t.Fatalf("%s[%d]: got %v, want %v", what, i, got, want)
	}
}

func randC64(rng *rand.Rand, n int) []complex64 {
	s := make([]complex64, n)
	for i := range s {
		s[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	return s
}

// kernelLengths covers vector-width multiples, every tail residue, and
// the radix mixes of 5-smooth plans.
var kernelLengths = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 25, 27, 30, 31, 48, 64, 96, 100, 125, 128}

func TestFlatKernelParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q): nothing to differentiate", KernelPath())
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range kernelLengths {
		for _, off := range []int{0, 1, 3} { // unaligned starts: complex64 slices at 8-byte grain
			a := randC64(rng, n+off)[off:]
			b := randC64(rng, n+off)[off:]
			dst := randC64(rng, n+off)[off:]
			want := make([]complex64, n)
			mulInto64Scalar(want, a, b)
			got := make([]complex64, n)
			copy(got, dst)
			mulInto64(got, a, b)
			for i := range want {
				c64Near(t, fmt.Sprintf("mulInto64 n=%d off=%d", n, off), i, got[i], want[i])
			}

			wantAcc := make([]complex64, n)
			copy(wantAcc, dst)
			mulAccInto64Scalar(wantAcc, a, b)
			gotAcc := make([]complex64, n)
			copy(gotAcc, dst)
			mulAccInto64(gotAcc, a, b)
			for i := range wantAcc {
				c64Near(t, fmt.Sprintf("mulAccInto64 n=%d off=%d", n, off), i, gotAcc[i], wantAcc[i])
			}

			const s = float32(0.37)
			wantS := make([]complex64, n)
			copy(wantS, a)
			scale64Scalar(wantS, s)
			gotS := make([]complex64, n)
			copy(gotS, a)
			scale64(gotS, s)
			for i := range wantS {
				c64Near(t, fmt.Sprintf("scale64 n=%d off=%d", n, off), i, gotS[i], wantS[i])
			}
		}
	}
	// Aliased dst (dst == a), the MulInto contract the conv layer uses.
	a := randC64(rng, 64)
	b := randC64(rng, 64)
	want := make([]complex64, 64)
	mulInto64Scalar(want, a, b)
	mulInto64(a, a, b)
	for i := range want {
		c64Near(t, "mulInto64 aliased", i, a[i], want[i])
	}
}

// laneButterflyParity drives one dispatched lane butterfly against its Go
// reference on identical random planes.
func laneButterflyParity(t *testing.T, m, pn, step int, inverse bool, radix int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*31 + pn + step + radix)))
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := twiddlesOf[complex64](pn, sign)
	n := radix * m * lanes
	re := make([]float32, n)
	im := make([]float32, n)
	for i := range re {
		re[i], im[i] = rng.Float32()*2-1, rng.Float32()*2-1
	}
	re2 := append([]float32(nil), re...)
	im2 := append([]float32(nil), im...)
	switch radix {
	case 2:
		bfLaneR2Go(re, im, m, w, step)
		bfLaneR2(re2, im2, m, w, step)
	case 3:
		t := w[pn/3]
		bfLaneR3Go(re, im, m, w, step, real(t), imag(t))
		bfLaneR3(re2, im2, m, w, step, real(t), imag(t))
	case 4:
		neg := w[pn/4]
		bfLaneR4Go(re, im, m, pn, w, step, real(neg), imag(neg))
		bfLaneR4(re2, im2, m, pn, w, step, real(neg), imag(neg))
	case 5:
		t1, t2 := w[pn/5], w[2*pn/5]
		bfLaneR5Go(re, im, m, w, step, real(t1), imag(t1), real(t2), imag(t2))
		bfLaneR5(re2, im2, m, w, step, real(t1), imag(t1), real(t2), imag(t2))
	}
	for i := range re {
		c64Near(t, fmt.Sprintf("bfLaneR%d m=%d pn=%d step=%d inv=%v", radix, m, pn, step, inverse),
			i, complex(re2[i], im2[i]), complex(re[i], im[i]))
	}
}

func TestLaneButterflyParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	for _, inverse := range []bool{false, true} {
		// (m, pn, step) triples as they occur in recLane64: step = pn/n,
		// n = radix·m at every recursion level of 5-smooth lengths.
		laneButterflyParity(t, 1, 2, 1, inverse, 2)
		laneButterflyParity(t, 3, 6, 1, inverse, 2)
		laneButterflyParity(t, 8, 16, 1, inverse, 2)
		laneButterflyParity(t, 24, 96, 2, inverse, 2)
		laneButterflyParity(t, 1, 4, 1, inverse, 4)
		laneButterflyParity(t, 4, 16, 1, inverse, 4)
		laneButterflyParity(t, 12, 48, 1, inverse, 4)
		laneButterflyParity(t, 12, 96, 2, inverse, 4)
		laneButterflyParity(t, 25, 100, 1, inverse, 4)
		laneButterflyParity(t, 1, 3, 1, inverse, 3)
		laneButterflyParity(t, 4, 12, 1, inverse, 3)
		laneButterflyParity(t, 12, 36, 1, inverse, 3)
		laneButterflyParity(t, 20, 120, 2, inverse, 3)
		laneButterflyParity(t, 1, 5, 1, inverse, 5)
		laneButterflyParity(t, 12, 60, 1, inverse, 5)
		laneButterflyParity(t, 6, 60, 2, inverse, 5)
	}
}

func TestLaneSplitPassParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 2, 3, 8, 15, 24, 48} {
		wf := twiddlesOf[complex64](2*m, -1)[:m+1]
		n := (m + 1) * lanes
		zre, zim := make([]float32, n), make([]float32, n)
		for i := range zre {
			zre[i], zim[i] = rng.Float32()*2-1, rng.Float32()*2-1
		}
		wantRe, wantIm := make([]float32, n), make([]float32, n)
		gotRe, gotIm := make([]float32, n), make([]float32, n)
		r2cLaneCombineGo(zre, zim, wantRe, wantIm, wf, m)
		r2cLaneCombine(zre, zim, gotRe, gotIm, wf, m)
		for i := lanes; i < m*lanes; i++ { // k = 1 .. m−1 only
			c64Near(t, fmt.Sprintf("r2cLaneCombine m=%d", m), i,
				complex(gotRe[i], gotIm[i]), complex(wantRe[i], wantIm[i]))
		}

		const cs = float32(0.125)
		c2rLanePreGo(wantRe, wantIm, zre, zim, wf, m, cs)
		c2rLanePre(gotRe, gotIm, zre, zim, wf, m, cs)
		for i := 0; i < m*lanes; i++ {
			c64Near(t, fmt.Sprintf("c2rLanePre m=%d", m), i,
				complex(gotRe[i], gotIm[i]), complex(wantRe[i], wantIm[i]))
		}
	}
}

// TestLaneRecMatchesScalarLines checks the lane-batched recursion itself
// (whichever butterflies are installed) against rec64 line by line: 8
// independent random lines transformed in lockstep must match the same 8
// lines transformed one at a time. Runs on every build, so the purego leg
// and the race job exercise the Go lane kernels.
func TestLaneRecMatchesScalarLines(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 45, 48, 60, 64, 81, 96, 100, 120, 125, 128} {
		for _, inverse := range []bool{false, true} {
			factors, rem := factorize(n)
			if rem != 1 {
				continue
			}
			sign := -1.0
			if inverse {
				sign = 1.0
			}
			w := twiddlesOf[complex64](n, sign)
			lines := make([][]complex64, lanes)
			srcRe := make([]float32, n*lanes)
			srcIm := make([]float32, n*lanes)
			dstRe := make([]float32, n*lanes)
			dstIm := make([]float32, n*lanes)
			for c := range lines {
				lines[c] = randC64(rng, n)
				for j, v := range lines[c] {
					srcRe[j*lanes+c] = real(v)
					srcIm[j*lanes+c] = imag(v)
				}
			}
			recLane64(factors, n, dstRe, dstIm, srcRe, srcIm, n, 1, 0, w)
			for c := range lines {
				want := make([]complex64, n)
				recLane64ref(factors, n, want, lines[c], w)
				for j := 0; j < n; j++ {
					c64Near(t, fmt.Sprintf("recLane n=%d inv=%v lane=%d", n, inverse, c), j,
						complex(dstRe[j*lanes+c], dstIm[j*lanes+c]), want[j])
				}
			}
		}
	}
}

// recLane64ref runs the scalar rec64 on one line.
func recLane64ref(factors []int, n int, dst, src []complex64, w []complex64) {
	tmp := append([]complex64(nil), src...)
	rec64(factors, n, dst, tmp, n, 1, 0, w)
}

// TestKernelDispatchAVX2 is CI's proof that the assembly actually runs on
// the host: with ZNN_REQUIRE_AVX2=1 it fails (rather than skips) when the
// AVX2 path is not installed, checks that every lane butterfly the plans
// reach (radix 2, 3, 4 and 5) is its AVX2 body, then drives a pointwise
// product and asserts the dispatch counter advanced.
func TestKernelDispatchAVX2(t *testing.T) {
	require := os.Getenv("ZNN_REQUIRE_AVX2") != ""
	if KernelPath() != "avx2" {
		if require {
			t.Fatalf("ZNN_REQUIRE_AVX2 set but kernel path is %q (cpu: %+v)", KernelPath(), cpu.X86)
		}
		t.Skipf("kernel path %q: AVX2 not available", KernelPath())
	}
	for name, fn := range map[string]any{
		"bfLaneR2": bfLaneR2, "bfLaneR3": bfLaneR3, "bfLaneR4": bfLaneR4, "bfLaneR5": bfLaneR5,
	} {
		got := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
		if !strings.HasSuffix(got, "."+name+"AVX2") {
			t.Errorf("%s dispatches to %s, want the AVX2 body", name, got)
		}
	}
	before := KernelDispatches()
	a := randC64(rand.New(rand.NewSource(1)), 1024)
	b := randC64(rand.New(rand.NewSource(2)), 1024)
	MulInto(a, a, b)
	if after := KernelDispatches(); after <= before {
		t.Fatalf("kernel dispatch counter did not advance: %d -> %d", before, after)
	}
}
