package fft

import (
	"testing"

	"znn/internal/tensor"
)

// Per-kernel microbenchmarks. Each has a dispatched variant (whatever
// implementation is installed — AVX2 on capable amd64 hosts, the Go lane
// kernels under purego) and a scalar reference variant; their ratio is the
// per-kernel speedup of the vector set on this host.

// benchPair times one call of dispatched and of scalar per op; bytes is the
// data volume per op.
func benchPair(b *testing.B, bytes int, dispatched, scalar func()) {
	for _, v := range []struct {
		name string
		fn   func()
	}{{"dispatched", dispatched}, {"scalar", scalar}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				v.fn()
			}
		})
	}
}

// flatOperands returns a 4096-element spectrum slab and two operands for
// the flat complex64 kernels.
func flatOperands() (dst, a, b []complex64) {
	const n = 4096
	dst = make([]complex64, n)
	a = make([]complex64, n)
	b = make([]complex64, n)
	for i := range a {
		a[i] = complex(float32(i%17)*0.25-2, float32(i%13)*0.25-1.5)
		b[i] = complex(float32(i%11)*0.25-1, float32(i%7)*0.25-0.75)
	}
	return dst, a, b
}

// lanePlanes returns split re/im planes of rows lane-rows filled with small
// deterministic values scaled by amp.
func lanePlanes[F tensor.Real](rows int, amp F) (re, im []F) {
	re = make([]F, rows*lanes)
	im = make([]F, rows*lanes)
	for i := range re {
		re[i] = (F(i%9) - 4) * amp
		im[i] = (F(i%7) - 3) * amp
	}
	return re, im
}

// benchTable returns the n-point twiddle table at precision F as pairs.
func benchTable[F tensor.Real](n int) [][2]F {
	if isR32[F]() {
		return pairs[F](twiddlesOf[complex64](n, -1))
	}
	return pairs[F](twiddlesOf[complex128](n, -1))
}

func BenchmarkMulInto64(b *testing.B) {
	dst, x, y := flatOperands()
	benchPair(b, len(dst)*8*3,
		func() { mulInto64(dst, x, y) },
		func() { mulInto64Scalar(dst, x, y) })
}

func BenchmarkMulAccInto64(b *testing.B) {
	dst, x, y := flatOperands()
	// dst[0] is cleared each op to keep the accumulator from overflowing.
	benchPair(b, len(dst)*8*3,
		func() { mulAccInto64(dst, x, y); dst[0] = 0 },
		func() { mulAccInto64Scalar(dst, x, y); dst[0] = 0 })
}

// BenchmarkMulAccInto128 is the complex128 node-sum step at the same
// 4096-coefficient slab.
func BenchmarkMulAccInto128(b *testing.B) {
	d, x, y := flatOperands()
	dst, a, c := make([]complex128, len(d)), make([]complex128, len(x)), make([]complex128, len(y))
	for i := range a {
		a[i], c[i] = complex128(x[i]), complex128(y[i])
	}
	benchPair(b, len(dst)*16*3,
		func() { mulAccInto128(dst, a, c); dst[0] = 0 },
		func() { mulAccInto128Scalar(dst, a, c); dst[0] = 0 })
}

func BenchmarkScale64(b *testing.B) {
	dst, _, _ := flatOperands()
	benchPair(b, len(dst)*8*2,
		func() { scale64(dst, 1.0000001) },
		func() { scale64Scalar(dst, 1.0000001) })
}

// The lane-batched butterflies run at the stage shapes of a 96-point plan:
// the radix-2 stage has m = 48, the radix-4 stage m = 24. They mutate in
// place, so repeated application drifts the values; magnitudes stay in
// normal range well past any realistic iteration count, and timing is
// value-independent there. Each runs in both precisions.
const benchPN = 96

// benchLanes runs fn's dispatched and portable variant per precision.
func benchLanes(b *testing.B, rows int, fn32 func(k *laneKernels[float32]), fn64 func(k *laneKernels[float64])) {
	b.Run("f32", func(b *testing.B) {
		benchPair(b, rows*lanes*4*2*2,
			func() { fn32(kernelsFor[float32](true)) }, func() { fn32(portable[float32](lanes)) })
	})
	b.Run("f64", func(b *testing.B) {
		benchPair(b, rows*lanes*8*2*2,
			func() { fn64(kernelsFor[float64](true)) }, func() { fn64(portable[float64](lanes)) })
	})
}

func BenchmarkButterflyR2(b *testing.B) {
	w32, w64 := benchTable[float32](benchPN), benchTable[float64](benchPN)
	re32, im32 := lanePlanes[float32](2*48, 0.01)
	re64, im64 := lanePlanes[float64](2*48, 0.01)
	benchLanes(b, 2*48,
		func(k *laneKernels[float32]) { k.r2(re32, im32, 48, w32, 1) },
		func(k *laneKernels[float64]) { k.r2(re64, im64, 48, w64, 1) })
}

func BenchmarkButterflyR4(b *testing.B) {
	w32, w64 := benchTable[float32](benchPN), benchTable[float64](benchPN)
	t := benchPN / 4
	re32, im32 := lanePlanes[float32](4*24, 0.01)
	re64, im64 := lanePlanes[float64](4*24, 0.01)
	benchLanes(b, 4*24,
		func(k *laneKernels[float32]) { k.r4(re32, im32, 24, benchPN, w32, 1, w32[t][0], w32[t][1]) },
		func(k *laneKernels[float64]) { k.r4(re64, im64, 24, benchPN, w64, 1, w64[t][0], w64[t][1]) })
}

// BenchmarkR2CCombine is the lane-batched r2c split combine at m = 48 (a
// 96-point real row).
func BenchmarkR2CCombine(b *testing.B) {
	const m = benchPN / 2
	wf32, wf64 := benchTable[float32](2 * m)[:m+1], benchTable[float64](2 * m)[:m+1]
	zre32, zim32 := lanePlanes[float32](m+1, 0.1)
	outRe32, outIm32 := lanePlanes[float32](m+1, 0)
	zre64, zim64 := lanePlanes[float64](m+1, 0.1)
	outRe64, outIm64 := lanePlanes[float64](m+1, 0)
	benchLanes(b, m+1,
		func(k *laneKernels[float32]) { k.combine(zre32, zim32, outRe32, outIm32, wf32, m) },
		func(k *laneKernels[float64]) { k.combine(zre64, zim64, outRe64, outIm64, wf64, m) })
}

// The radix-3 and radix-5 lane butterflies run over a 60-point twiddle
// table (60 = 4·3·5, infer_cube_f32's transform extent) at step 1: m = 20
// and m = 12, one whole-table sweep each. They mutate in place like the
// pairs above.
const benchPN35 = 60

func BenchmarkLaneR3(b *testing.B) {
	w32, w64 := benchTable[float32](benchPN35), benchTable[float64](benchPN35)
	t := benchPN35 / 3
	re32, im32 := lanePlanes[float32](benchPN35, 0.01)
	re64, im64 := lanePlanes[float64](benchPN35, 0.01)
	benchLanes(b, benchPN35,
		func(k *laneKernels[float32]) { k.r3(re32, im32, benchPN35/3, w32, 1, w32[t][0], w32[t][1]) },
		func(k *laneKernels[float64]) { k.r3(re64, im64, benchPN35/3, w64, 1, w64[t][0], w64[t][1]) })
}

func BenchmarkLaneR5(b *testing.B) {
	w32, w64 := benchTable[float32](benchPN35), benchTable[float64](benchPN35)
	t1, t2 := benchPN35/5, 2*benchPN35/5
	re32, im32 := lanePlanes[float32](benchPN35, 0.01)
	re64, im64 := lanePlanes[float64](benchPN35, 0.01)
	benchLanes(b, benchPN35,
		func(k *laneKernels[float32]) {
			k.r5(re32, im32, benchPN35/5, w32, 1, w32[t1][0], w32[t1][1], w32[t2][0], w32[t2][1])
		},
		func(k *laneKernels[float64]) {
			k.r5(re64, im64, benchPN35/5, w64, 1, w64[t1][0], w64[t1][1], w64[t2][0], w64[t2][1])
		})
}

// BenchmarkLaneGather moves every 8-column block of a 30³ float64 packed
// spectrum through the Z pass's gather (leaf order) and scatter, the
// transposes around every Y/Z pass's butterflies; bytes count both ways.
func BenchmarkLaneGather(b *testing.B) {
	ps := PackedShape(tensor.Cube(30))
	plane := ps.X * ps.Y
	buf := pairs[float64](make([]complex128, ps.Volume()))
	re, im := lanePlanes[float64](ps.Z, 1)
	perm := NewPlan(ps.Z).perm
	run := func(k *laneKernels[float64]) func() {
		return func() {
			for x0 := 0; x0 < plane; x0 += lanes {
				k.gather(re, im, buf[x0:], perm, plane, ps.Z, lanes, ps.Z)
				k.scatter(buf[x0:], re, im, plane, ps.Z, lanes)
			}
		}
	}
	benchPair(b, 2*ps.Volume()*16, run(kernelsFor[float64](true)), run(portable[float64](lanes)))
}
