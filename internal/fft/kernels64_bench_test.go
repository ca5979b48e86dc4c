package fft

import "testing"

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
func lanePlanes(rows int, amp float32) (re, im []float32) {
	re = make([]float32, rows*lanes)
	im = make([]float32, rows*lanes)
	for i := range re {
		re[i] = (float32(i%9) - 4) * amp
		im[i] = (float32(i%7) - 3) * amp
	}
	return re, im
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

func BenchmarkScale64(b *testing.B) {
	dst, _, _ := flatOperands()
	benchPair(b, len(dst)*8*2,
		func() { scale64(dst, 1.0000001) },
		func() { scale64Scalar(dst, 1.0000001) })
}

// The lane-batched butterflies run at the stage shapes of a 96-point plan:
// the radix-2 stage has m = 48, the radix-4 stage m = 24. They mutate in
// place, so repeated application drifts the values; magnitudes stay in
// normal float32 range well past any realistic iteration count, and timing
// is value-independent there.
const benchPN = 96

func BenchmarkButterflyR2(b *testing.B) {
	w := twiddlesOf[complex64](benchPN, -1)
	re, im := lanePlanes(2*48, 0.01)
	benchPair(b, len(re)*4*2*2,
		func() { bfLaneR2(re, im, 48, w, 1) },
		func() { bfLaneR2Go(re, im, 48, w, 1) })
}

func BenchmarkButterflyR4(b *testing.B) {
	w := twiddlesOf[complex64](benchPN, -1)
	neg := w[benchPN/4]
	re, im := lanePlanes(4*24, 0.01)
	benchPair(b, len(re)*4*2*2,
		func() { bfLaneR4(re, im, 24, benchPN, w, 1, real(neg), imag(neg)) },
		func() { bfLaneR4Go(re, im, 24, benchPN, w, 1, real(neg), imag(neg)) })
}

// BenchmarkR2CCombine64 is the lane-batched r2c split combine at m = 48 (a
// 96-point real row).
func BenchmarkR2CCombine64(b *testing.B) {
	const m = benchPN / 2
	wf := twiddlesOf[complex64](2*m, -1)[: m+1 : m+1]
	zre, zim := lanePlanes(m+1, 0.1)
	outRe, outIm := lanePlanes(m+1, 0)
	benchPair(b, len(zre)*4*2*2,
		func() { r2cLaneCombine(zre, zim, outRe, outIm, wf, m) },
		func() { r2cLaneCombineGo(zre, zim, outRe, outIm, wf, m) })
}

// The radix-3 and radix-5 lane butterflies run over a 60-point twiddle
// table (60 = 4·3·5, infer_cube_f32's transform extent) at step 1: m = 20
// and m = 12, one whole-table sweep each. They mutate in place like the
// pairs above.
const benchPN35 = 60

func BenchmarkLaneR3(b *testing.B) {
	w := twiddlesOf[complex64](benchPN35, -1)
	t := w[benchPN35/3]
	re, im := lanePlanes(benchPN35, 0.01)
	benchPair(b, len(re)*4*2*2,
		func() { bfLaneR3(re, im, benchPN35/3, w, 1, real(t), imag(t)) },
		func() { bfLaneR3Go(re, im, benchPN35/3, w, 1, real(t), imag(t)) })
}

func BenchmarkLaneR5(b *testing.B) {
	w := twiddlesOf[complex64](benchPN35, -1)
	t1, t2 := w[benchPN35/5], w[2*benchPN35/5]
	re, im := lanePlanes(benchPN35, 0.01)
	benchPair(b, len(re)*4*2*2,
		func() { bfLaneR5(re, im, benchPN35/5, w, 1, real(t1), imag(t1), real(t2), imag(t2)) },
		func() { bfLaneR5Go(re, im, benchPN35/5, w, 1, real(t1), imag(t1), real(t2), imag(t2)) })
}
