//go:build amd64 && !purego

package fft

import (
	"znn/internal/cpu"
	"znn/internal/tensor"
)

// init swaps the AVX2 kernel set into the dispatch table when the CPU
// supports it (AVX2 + FMA + OS YMM state).
func init() {
	if !cpu.VectorOK() {
		return
	}
	mulInto64, mulAccInto64 = flatAVX2(mulInto64Asm, mulInto64Scalar), flatAVX2(mulAccInto64Asm, mulAccInto64Scalar)
	mulInto128, mulAccInto128 = flatAVX2(mulInto128Asm, mulInto128Scalar), flatAVX2(mulAccInto128Asm, mulAccInto128Scalar)
	scale64, scale128 = scaleAVX2(scale64Asm, scale64Scalar), scaleAVX2(scale128Asm, scale128Scalar)
	mulConj64 = conjAVX2(mulConj64Asm, mulConjScalar[float32, complex64])
	mulConj128 = conjAVX2(mulConj128Asm, mulConjScalar[float64, complex128])
	*lane32 = laneKernels[float32]{lanes, bfLaneR2AVX2, bfLaneR3AVX2, bfLaneR4AVX2, bfLaneR5AVX2,
		r2cLaneCombineAVX2, c2rLanePreAVX2, gatherAVX2(gatherLanesAsm), scatterAVX2(scatterLanesAsm)}
	*lane64 = laneKernels[float64]{lanes, bfLaneR2AVX2F64, bfLaneR3AVX2F64, bfLaneR4AVX2F64, bfLaneR5AVX2F64,
		r2cLaneCombineAVX2F64, c2rLanePreAVX2F64, gatherAVX2(gatherLanesAsmF64), scatterAVX2(scatterLanesAsmF64)}
	vecActive = true
	kernelPath = "avx2"
}

// The wrappers below bridge the asm bodies to slices. The flat ones also
// bridge whole vector groups to arbitrary lengths: the assembly processes
// the prefix that fills whole YMM registers (4 complex64 or 2 complex128)
// and the Go twin finishes the tail. countVec rides the flat kernels here
// because they are called once per spectrum.

func vecPrefix[C Complex](n int) int {
	if is32[C]() {
		return n &^ 3
	}
	return n &^ 1
}

func flatAVX2[C Complex](body func(dst, a, b *C, n int), tail func(dst, a, b []C)) func(dst, a, b []C) {
	return func(dst, a, b []C) {
		countVec()
		n := vecPrefix[C](len(dst))
		if n > 0 {
			body(&dst[0], &a[0], &b[0], n)
		}
		tail(dst[n:], a[n:], b[n:])
	}
}

func conjAVX2[C Complex](body func(dst, a, b *C, n int, acc bool), tail func(dst, a, b []C, acc bool)) func(dst, a, b []C, acc bool) {
	return func(dst, a, b []C, acc bool) {
		countVec()
		n := vecPrefix[C](len(dst))
		if n > 0 {
			body(&dst[0], &a[0], &b[0], n, acc)
		}
		tail(dst[n:], a[n:], b[n:], acc)
	}
}

func scaleAVX2[F tensor.Real, C Complex](body func(data *C, n int, s F), tail func([]C, F)) func([]C, F) {
	return func(data []C, s F) {
		countVec()
		n := vecPrefix[C](len(data))
		if n > 0 {
			body(&data[0], n, s)
		}
		tail(data[n:], s)
	}
}

// gatherAVX2 and scatterAVX2 bridge the block gather and scatter bodies
// to the lane-kernel signatures: a full block of lanes columns goes to the
// assembly, after bounds checks on its last row, and a pass's tail block
// to the Go loops.
func gatherAVX2[F tensor.Real](body func(sre, sim, b *F, perm *int, es, n, lim int)) func([]F, []F, [][2]F, []int, int, int, int, int) {
	return func(sre, sim []F, b [][2]F, perm []int, es, n, cols, lim int) {
		if cols < lanes {
			gatherLanes(sre, sim, b, perm, lanes, 0, 1, es, n, cols, lim)
			return
		}
		_, _, _ = b[(n-1)*es+lanes-1], sre[n*lanes-1], sim[n*lanes-1]
		var pp *int
		if perm != nil {
			_ = perm[n-1]
			pp = &perm[0]
		}
		body(&sre[0], &sim[0], &b[0][0], pp, es, n, lim)
	}
}

func scatterAVX2[F tensor.Real](body func(b, dre, dim *F, es, n int)) func([][2]F, []F, []F, int, int, int) {
	return func(b [][2]F, dre, dim []F, es, n, cols int) {
		if cols < lanes {
			scatterLanes(b, dre, dim, lanes, 0, 1, es, n, cols)
			return
		}
		_, _, _ = b[(n-1)*es+lanes-1], dre[n*lanes-1], dim[n*lanes-1]
		body(&b[0][0], &dre[0], &dim[0], es, n)
	}
}

// The lane kernels operate on whole lanes-wide planes, so no tails; laneDFT
// and the split passes call them with m ≥ 1 (each k step is one full row of
// 8 floats per plane).

func bfLaneR2AVX2(dre, dim []float32, m int, w [][2]float32, step int) {
	bfLaneR2Asm(&dre[0], &dim[0], m, &w[0][0], step)
}

func bfLaneR3AVX2(dre, dim []float32, m int, w [][2]float32, step int, wr, wi float32) {
	bfLaneR3Asm(&dre[0], &dim[0], m, &w[0][0], step, wr, wi)
}

func bfLaneR4AVX2(dre, dim []float32, m, pn int, w [][2]float32, step int, nr, ni float32) {
	bfLaneR4Asm(&dre[0], &dim[0], m, pn, &w[0][0], step, nr, ni)
}

func bfLaneR5AVX2(dre, dim []float32, m int, w [][2]float32, step int, r1, i1, r2, i2 float32) {
	bfLaneR5Asm(&dre[0], &dim[0], m, &w[0][0], step, r1, i1, r2, i2)
}

func r2cLaneCombineAVX2(zre, zim, outre, outim []float32, wf [][2]float32, m int) {
	r2cLaneCombineAsm(&zre[0], &zim[0], &outre[0], &outim[0], &wf[0][0], m)
}

func c2rLanePreAVX2(zre, zim, sre, sim []float32, wf [][2]float32, m int, cs float32) {
	c2rLanePreAsm(&zre[0], &zim[0], &sre[0], &sim[0], &wf[0][0], m, cs)
}

func bfLaneR2AVX2F64(dre, dim []float64, m int, w [][2]float64, step int) {
	bfLaneR2AsmF64(&dre[0], &dim[0], m, &w[0][0], step)
}

func bfLaneR3AVX2F64(dre, dim []float64, m int, w [][2]float64, step int, wr, wi float64) {
	bfLaneR3AsmF64(&dre[0], &dim[0], m, &w[0][0], step, wr, wi)
}

func bfLaneR4AVX2F64(dre, dim []float64, m, pn int, w [][2]float64, step int, nr, ni float64) {
	bfLaneR4AsmF64(&dre[0], &dim[0], m, pn, &w[0][0], step, nr, ni)
}

func bfLaneR5AVX2F64(dre, dim []float64, m int, w [][2]float64, step int, r1, i1, r2, i2 float64) {
	bfLaneR5AsmF64(&dre[0], &dim[0], m, &w[0][0], step, r1, i1, r2, i2)
}

func r2cLaneCombineAVX2F64(zre, zim, outre, outim []float64, wf [][2]float64, m int) {
	r2cLaneCombineAsmF64(&zre[0], &zim[0], &outre[0], &outim[0], &wf[0][0], m)
}

func c2rLanePreAVX2F64(zre, zim, sre, sim []float64, wf [][2]float64, m int, cs float64) {
	c2rLanePreAsmF64(&zre[0], &zim[0], &sre[0], &sim[0], &wf[0][0], m, cs)
}
