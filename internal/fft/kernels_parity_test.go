package fft

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"znn/internal/cpu"
	"znn/internal/tensor"
)

// The differential parity suite fuzzes the dispatchable kernels against
// their portable twins: whatever implementation is installed (AVX2 on
// capable hosts, the Go kernels under purego) must agree with the Go
// kernels across lengths (radix-2/4 mixes, radix-3/5 tails, odd sizes),
// unaligned slice offsets, and both twiddle directions, in both precisions.
// The AVX2 kernels use FMA, so results are compared at a relative
// tolerance rather than bitwise: 1e-5 for float32, 1e-12 for float64.

// tolOf is the relative kernel tolerance at precision F; the float32 one
// matches conv.PrecF32.Tol's scale.
func tolOf[F tensor.Real]() float64 {
	if isR32[F]() {
		return 1e-5
	}
	return 1e-12
}

// near fails the test when the complex value gr+i·gi is not within
// tolOf[F]·max(|want|, 1) of wr+i·wi.
func near[F tensor.Real](t *testing.T, what string, i int, gr, gi, wr, wi F) {
	t.Helper()
	mag := max(math.Hypot(float64(wr), float64(wi)), 1)
	if math.Hypot(float64(gr)-float64(wr), float64(gi)-float64(wi)) > tolOf[F]()*mag {
		t.Fatalf("%s[%d]: got %v%+vi, want %v%+vi", what, i, gr, gi, wr, wi)
	}
}

// nearC is near on coefficient slices viewed through pairs.
func nearC[F tensor.Real, C Complex](t *testing.T, what string, got, want []C) {
	t.Helper()
	g, w := pairs[F](got), pairs[F](want)
	for i := range g {
		near(t, what, i, g[i][0], g[i][1], w[i][0], w[i][1])
	}
}

func randC64(rng *rand.Rand, n int) []complex64 {
	s := make([]complex64, n)
	for i := range s {
		s[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	return s
}

func randC128(rng *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return s
}

// randPlanes returns two random planes of n floats.
func randPlanes[F tensor.Real](rng *rand.Rand, n int) (re, im []F) {
	re, im = make([]F, n), make([]F, n)
	for i := range re {
		re[i], im[i] = F(rng.Float64()*2-1), F(rng.Float64()*2-1)
	}
	return re, im
}

// kernelLengths covers vector-width multiples, every tail residue, and
// the radix mixes of 5-smooth plans.
var kernelLengths = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 25, 27, 30, 31, 48, 64, 96, 100, 125, 128}

// flatParity checks one precision's dispatched flat kernels (mul, mulAcc,
// scale) against their portable twins at every length and offset.
func flatParity[F tensor.Real, C Complex](t *testing.T, rnd func(*rand.Rand, int) []C,
	mul, mulGo, acc, accGo func(dst, a, b []C), scale, scaleGo func([]C, F)) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range kernelLengths {
		for _, off := range []int{0, 1, 3} { // unaligned starts
			a := rnd(rng, n+off)[off:]
			b := rnd(rng, n+off)[off:]
			dst := rnd(rng, n+off)[off:]
			name := fmt.Sprintf("%T n=%d off=%d", a, n, off)
			want, got := make([]C, n), make([]C, n)
			mulGo(want, a, b)
			mul(got, a, b)
			nearC[F](t, "mulInto "+name, got, want)

			copy(want, dst)
			copy(got, dst)
			accGo(want, a, b)
			acc(got, a, b)
			nearC[F](t, "mulAccInto "+name, got, want)

			copy(want, a)
			copy(got, a)
			scaleGo(want, 0.37)
			scale(got, 0.37)
			nearC[F](t, "scale "+name, got, want)
		}
	}
	// Aliased dst (dst == a), the MulInto contract the conv layer uses.
	a, b := rnd(rng, 64), rnd(rng, 64)
	want := make([]C, 64)
	mulGo(want, a, b)
	mul(a, a, b)
	nearC[F](t, "mulInto aliased", a, want)
}

func TestFlatKernelParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q): nothing to differentiate", KernelPath())
	}
	flatParity[float32](t, randC64, mulInto64, mulInto64Scalar, mulAccInto64, mulAccInto64Scalar,
		scale64, scale64Scalar)
	flatParity[float64](t, randC128, mulInto128, mulInto128Scalar, mulAccInto128, mulAccInto128Scalar,
		scale128, scale128Scalar)
}

// bitsOf returns the bit patterns of a coefficient slice's components, so
// that comparisons tell −0 from +0.
func bitsOf[F tensor.Real, C Complex](c []C) []uint64 {
	var out []uint64
	for _, v := range pairs[F](c) {
		out = append(out, math.Float64bits(float64(v[0])), math.Float64bits(float64(v[1])))
	}
	return out
}

// TestMulConjParity pins the installed conjugate products to their Go twin
// bit for bit (both round each product before summing, with no FMA) at
// every kernel length, tails of 1 to 3 past the vector groups included,
// at unaligned offsets, with and without accumulation, aliased (dst == a)
// too, in both precisions.
func TestMulConjParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	mulConjParity[float32](t, randC64, mulConj64)
	mulConjParity[float64](t, randC128, mulConj128)
}

func mulConjParity[F tensor.Real, C Complex](t *testing.T, rnd func(*rand.Rand, int) []C, fn func(dst, a, b []C, acc bool)) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range kernelLengths {
		for _, off := range []int{0, 1, 3} {
			a, b, dst := rnd(rng, n+off)[off:], rnd(rng, n+off)[off:], rnd(rng, n+off)[off:]
			for _, acc := range []bool{false, true} {
				want, got := slices.Clone(dst), slices.Clone(dst)
				mulConjScalar[F](want, a, b, acc)
				fn(got, a, b, acc)
				if !slices.Equal(bitsOf[F](got), bitsOf[F](want)) {
					t.Fatalf("%T n=%d off=%d acc=%v: installed conjugate product differs from the Go twin", a, n, off, acc)
				}
				want, got = slices.Clone(a), slices.Clone(a)
				mulConjScalar[F](want, want, b, acc)
				fn(got, got, b, acc)
				if !slices.Equal(bitsOf[F](got), bitsOf[F](want)) {
					t.Fatalf("%T n=%d off=%d acc=%v aliased: installed conjugate product differs from the Go twin", a, n, off, acc)
				}
			}
		}
	}
}

// TestLaneGatherScatterParity pins the installed block gather and scatter
// to their Go twins bit for bit, on one block of 8 columns of a random
// 30³ packed spectrum starting one coefficient past a boundary: at the Y
// pass's stride (X/2+1) and the Z pass's (a plane), in leaf order and in
// natural order, reading every element and zero-filling from a bound below
// n, in both precisions. Tail blocks run the Go loops on either set.
func TestLaneGatherScatterParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	gatherScatterParity[float32](t, randC64)
	gatherScatterParity[float64](t, randC128)
}

func gatherScatterParity[F tensor.Real, C Complex](t *testing.T, rnd func(*rand.Rand, int) []C) {
	rng := rand.New(rand.NewSource(29))
	const n = 30
	ps := PackedShape(tensor.Cube(n))
	buf := rnd(rng, ps.Volume())
	goK, k := portable[F](lanes), kernelsFor[F](true)
	for _, es := range []int{ps.X, ps.X * ps.Y} {
		for _, perm := range [][]int{NewPlanOf[C](n).perm, nil} {
			for _, lim := range []int{n, 7} {
				name := fmt.Sprintf("%T es=%d perm=%v lim=%d", buf[0], es, perm != nil, lim)
				wantRe, wantIm := randPlanes[F](rng, n*lanes)
				gotRe, gotIm := slices.Clone(wantRe), slices.Clone(wantIm)
				goK.gather(wantRe, wantIm, pairs[F](buf)[1:], perm, es, n, lanes, lim)
				k.gather(gotRe, gotIm, pairs[F](buf)[1:], perm, es, n, lanes, lim)
				for i := range wantRe {
					if math.Float64bits(float64(gotRe[i])) != math.Float64bits(float64(wantRe[i])) ||
						math.Float64bits(float64(gotIm[i])) != math.Float64bits(float64(wantIm[i])) {
						t.Fatalf("gather %s: plane index %d is %v%+vi, Go twin %v%+vi", name, i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
					}
				}
			}
			want, got := slices.Clone(buf), slices.Clone(buf)
			re, im := randPlanes[F](rng, n*lanes)
			goK.scatter(pairs[F](want)[1:], re, im, es, n, lanes)
			k.scatter(pairs[F](got)[1:], re, im, es, n, lanes)
			if !slices.Equal(bitsOf[F](got), bitsOf[F](want)) {
				t.Fatalf("scatter %T es=%d: installed scatter differs from the Go twin", buf[0], es)
			}
		}
	}
}

// laneButterflyParity drives one installed lane butterfly against its Go
// twin on identical random planes.
func laneButterflyParity[F tensor.Real](t *testing.T, m, pn, step int, inverse bool, radix int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*31 + pn + step + radix)))
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([][2]F, pn)
	for i, v := range twiddlesOf[complex128](pn, sign) {
		w[i] = [2]F{F(real(v)), F(imag(v))}
	}
	re, im := randPlanes[F](rng, radix*m*lanes)
	re2 := append([]F(nil), re...)
	im2 := append([]F(nil), im...)
	goK, k := portable[F](lanes), kernelsFor[F](true)
	c := func(j int) (F, F) { return w[j][0], w[j][1] }
	switch radix {
	case 2:
		goK.r2(re, im, m, w, step)
		k.r2(re2, im2, m, w, step)
	case 3:
		wr, wi := c(pn / 3)
		goK.r3(re, im, m, w, step, wr, wi)
		k.r3(re2, im2, m, w, step, wr, wi)
	case 4:
		nr, ni := c(pn / 4)
		goK.r4(re, im, m, pn, w, step, nr, ni)
		k.r4(re2, im2, m, pn, w, step, nr, ni)
	case 5:
		r1, i1 := c(pn / 5)
		r2, i2 := c(2 * pn / 5)
		goK.r5(re, im, m, w, step, r1, i1, r2, i2)
		k.r5(re2, im2, m, w, step, r1, i1, r2, i2)
	}
	for i := range re {
		near(t, fmt.Sprintf("%T r%d m=%d pn=%d step=%d inv=%v", re[0], radix, m, pn, step, inverse),
			i, re2[i], im2[i], re[i], im[i])
	}
}

func TestLaneButterflyParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	for _, f32 := range []bool{true, false} {
		bf := laneButterflyParity[float64]
		if f32 {
			bf = laneButterflyParity[float32]
		}
		for _, inverse := range []bool{false, true} {
			// (m, pn, step) triples as they occur in laneDFT: step = pn/n,
			// n = radix·m at every recursion level of 5-smooth lengths.
			for _, c := range [][4]int{
				{1, 2, 1, 2}, {3, 6, 1, 2}, {8, 16, 1, 2}, {24, 96, 2, 2},
				{1, 4, 1, 4}, {4, 16, 1, 4}, {12, 48, 1, 4}, {12, 96, 2, 4}, {25, 100, 1, 4},
				{1, 3, 1, 3}, {4, 12, 1, 3}, {12, 36, 1, 3}, {20, 120, 2, 3},
				{1, 5, 1, 5}, {12, 60, 1, 5}, {6, 60, 2, 5},
			} {
				bf(t, c[0], c[1], c[2], inverse, c[3])
			}
		}
	}
}

// splitPassParity checks the installed r2c combine and c2r pre-pass
// against their Go twins at precision F.
func splitPassParity[F tensor.Real](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	goK, k := portable[F](lanes), kernelsFor[F](true)
	for _, m := range []int{1, 2, 3, 8, 15, 24, 48} {
		wf := make([][2]F, m+1)
		for i, v := range twiddlesOf[complex128](2*m, -1)[:m+1] {
			wf[i] = [2]F{F(real(v)), F(imag(v))}
		}
		n := (m + 1) * lanes
		zre, zim := randPlanes[F](rng, n)
		wantRe, wantIm := make([]F, n), make([]F, n)
		gotRe, gotIm := make([]F, n), make([]F, n)
		goK.combine(zre, zim, wantRe, wantIm, wf, m)
		k.combine(zre, zim, gotRe, gotIm, wf, m)
		for i := lanes; i < m*lanes; i++ { // k = 1 .. m−1 only
			near(t, fmt.Sprintf("%T combine m=%d", zre[0], m), i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
		}

		goK.pre(wantRe, wantIm, zre, zim, wf, m, 0.125)
		k.pre(gotRe, gotIm, zre, zim, wf, m, 0.125)
		for i := 0; i < m*lanes; i++ {
			near(t, fmt.Sprintf("%T pre m=%d", zre[0], m), i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
		}
	}
}

func TestLaneSplitPassParity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	splitPassParity[float32](t)
	splitPassParity[float64](t)
}

// TestLaneF64Parity runs whole float64 lane transforms through the
// installed kernels and through the Go twins: 8 random lines of every
// 5-smooth length in kernelLengths, with the planes starting 0, 1 and 3
// floats past an allocation (unaligned vector loads), in both directions.
func TestLaneF64Parity(t *testing.T) {
	if !vecActive {
		t.Skipf("vector kernels not active (path %q)", KernelPath())
	}
	rng := rand.New(rand.NewSource(17))
	goK, k := portable[float64](lanes), kernelsFor[float64](true)
	for _, n := range kernelLengths {
		if _, rem := factorize(n); rem != 1 || n == 1 {
			continue
		}
		pl := NewPlanOf[complex128](n)
		for _, off := range []int{0, 1, 3} {
			for _, inverse := range []bool{false, true} {
				gotRe, gotIm := randPlanes[float64](rng, n*lanes+off)
				gotRe, gotIm = gotRe[off:], gotIm[off:]
				wantRe := append([]float64(nil), gotRe...)
				wantIm := append([]float64(nil), gotIm...)
				laneDFT(goK, pl, inverse, wantRe, wantIm)
				laneDFT(k, pl, inverse, gotRe, gotIm)
				for i := range wantRe {
					near(t, fmt.Sprintf("laneDFT n=%d off=%d inv=%v", n, off, inverse), i,
						gotRe[i], gotIm[i], wantRe[i], wantIm[i])
				}
			}
		}
	}
}

// TestLaneRecMatchesScalarLines checks the lane-batched recursion itself
// (whichever butterflies are installed) against the single-line transform
// (PlanOf, nl = 1 on the Go kernels): 8 independent random lines
// transformed in lockstep must match the same 8 lines transformed one at a
// time, in both precisions. Runs on every build, so the purego leg and the
// race job exercise the Go lane kernels.
func TestLaneRecMatchesScalarLines(t *testing.T) {
	laneRecMatchesLines[float32, complex64](t)
	laneRecMatchesLines[float64, complex128](t)
}

func laneRecMatchesLines[F tensor.Real, C Complex](t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 45, 48, 60, 64, 81, 96, 100, 120, 125, 128} {
		for _, inverse := range []bool{false, true} {
			pl := NewPlanOf[C](n)
			lines := make([][]C, lanes)
			lt := newLaneTile[F](n, lanes)
			for c := range lines {
				lines[c] = make([]C, n)
				re, im := randPlanes[F](rng, n)
				for j := range n {
					lines[c][j] = C(complex(float64(re[j]), float64(im[j])))
				}
				for q, j := range pl.perm {
					lt.dstRe[q*lanes+c], lt.dstIm[q*lanes+c] = re[j], im[j]
				}
			}
			laneDFT(kernelsFor[F](true), pl, inverse, lt.dstRe, lt.dstIm)
			for c, line := range lines {
				pl.transform(line, inverse)
				lane := make([]C, n)
				l := pairs[F](lane)
				for j := range n {
					l[j] = [2]F{lt.dstRe[j*lanes+c], lt.dstIm[j*lanes+c]}
				}
				nearC[F](t, fmt.Sprintf("laneDFT %T n=%d inv=%v lane=%d", line[0], n, inverse, c), lane, line)
			}
		}
	}
}

// TestKernelDispatchAVX2 is CI's proof that the assembly actually runs on
// the host: with ZNN_REQUIRE_AVX2=1 it fails (rather than skips) when the
// AVX2 path is not installed, checks that every lane butterfly the plans
// reach (radix 2, 3, 4 and 5) and the block gather and scatter are their
// AVX2 bodies in both precisions, then drives a pointwise product of each
// precision, a conjugate product and a float64 transform and asserts the
// dispatch counter advanced for each.
func TestKernelDispatchAVX2(t *testing.T) {
	require := os.Getenv("ZNN_REQUIRE_AVX2") != ""
	if KernelPath() != "avx2" {
		if require {
			t.Fatalf("ZNN_REQUIRE_AVX2 set but kernel path is %q (cpu: %+v)", KernelPath(), cpu.X86)
		}
		t.Skipf("kernel path %q: AVX2 not available", KernelPath())
	}
	for suffix, fns := range map[string][]any{
		"AVX2":    {lane32.r2, lane32.r3, lane32.r4, lane32.r5},
		"AVX2F64": {lane64.r2, lane64.r3, lane64.r4, lane64.r5},
	} {
		for i, fn := range fns {
			name := fmt.Sprintf("bfLaneR%d%s", i+2, suffix)
			got := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
			if !strings.HasSuffix(got, "."+name) {
				t.Errorf("%s set radix %d dispatches to %s, want %s", suffix, i+2, got, name)
			}
		}
	}
	for name, fn := range map[string]any{
		"float32 gather": lane32.gather, "float32 scatter": lane32.scatter,
		"float64 gather": lane64.gather, "float64 scatter": lane64.scatter,
	} {
		got := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
		if want := strings.Fields(name)[1] + "AVX2"; !strings.Contains(got, "."+want) {
			t.Errorf("%s dispatches to %s, want the %s bridge", name, got, want)
		}
	}
	for name, run := range map[string]func(){
		"complex64 product": func() {
			a := randC64(rand.New(rand.NewSource(1)), 1024)
			MulInto(a, a, randC64(rand.New(rand.NewSource(2)), 1024))
		},
		"complex128 product": func() {
			a := randC128(rand.New(rand.NewSource(1)), 1024)
			MulInto(a, a, randC128(rand.New(rand.NewSource(2)), 1024))
		},
		"complex128 conjugate product": func() {
			a := Spec128(randC128(rand.New(rand.NewSource(1)), 1024))
			MulConjSpecInto(a, a, Spec128(randC128(rand.New(rand.NewSource(2)), 1024)), true)
		},
		"float64 transform": func() {
			p := NewPlan3R(tensor.Cube(16))
			p.Forward(make([]complex128, p.PackedLen()), tensor.New(tensor.Cube(16)))
		},
	} {
		before := KernelDispatches()
		run()
		if after := KernelDispatches(); after <= before {
			t.Errorf("%s: kernel dispatch counter did not advance: %d -> %d", name, before, after)
		}
	}
}
