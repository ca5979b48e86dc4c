//go:build amd64 && !purego

package fft

import "znn/internal/cpu"

// init swaps the AVX2 kernel set into the dispatch table when the CPU
// supports it (AVX2 + FMA + OS YMM state).
func init() {
	if !cpu.VectorOK() {
		return
	}
	mulInto64, mulAccInto64, scale64 = mulInto64AVX2, mulAccInto64AVX2, scale64AVX2
	mulInto128, mulAccInto128, scale128 = mulInto128AVX2, mulAccInto128AVX2, scale128AVX2
	*lane32 = laneKernels[float32]{lanes, bfLaneR2AVX2, bfLaneR3AVX2, bfLaneR4AVX2, bfLaneR5AVX2,
		r2cLaneCombineAVX2, c2rLanePreAVX2}
	*lane64 = laneKernels[float64]{lanes, bfLaneR2AVX2F64, bfLaneR3AVX2F64, bfLaneR4AVX2F64, bfLaneR5AVX2F64,
		r2cLaneCombineAVX2F64, c2rLanePreAVX2F64}
	vecActive = true
	kernelPath = "avx2"
}

// The wrappers below bridge the asm bodies to slices. The flat ones also
// bridge whole vector groups to arbitrary lengths: the assembly processes
// the aligned-count prefix and the scalar kernel finishes the tail.
// countVec rides the flat kernels here because they are called once per
// spectrum.

func mulInto64AVX2(dst, a, b []complex64) {
	countVec()
	n := len(dst) &^ 3
	if n > 0 {
		mulInto64Asm(&dst[0], &a[0], &b[0], n)
	}
	if n < len(dst) {
		mulInto64Scalar(dst[n:], a[n:], b[n:])
	}
}

func mulAccInto64AVX2(dst, a, b []complex64) {
	countVec()
	n := len(dst) &^ 3
	if n > 0 {
		mulAccInto64Asm(&dst[0], &a[0], &b[0], n)
	}
	if n < len(dst) {
		mulAccInto64Scalar(dst[n:], a[n:], b[n:])
	}
}

func scale64AVX2(data []complex64, s float32) {
	countVec()
	n := len(data) &^ 3
	if n > 0 {
		scale64Asm(&data[0], n, s)
	}
	if n < len(data) {
		scale64Scalar(data[n:], s)
	}
}

func mulInto128AVX2(dst, a, b []complex128) {
	countVec()
	n := len(dst) &^ 1
	if n > 0 {
		mulInto128Asm(&dst[0], &a[0], &b[0], n)
	}
	if n < len(dst) {
		mulInto128Scalar(dst[n:], a[n:], b[n:])
	}
}

func mulAccInto128AVX2(dst, a, b []complex128) {
	countVec()
	n := len(dst) &^ 1
	if n > 0 {
		mulAccInto128Asm(&dst[0], &a[0], &b[0], n)
	}
	if n < len(dst) {
		mulAccInto128Scalar(dst[n:], a[n:], b[n:])
	}
}

func scale128AVX2(data []complex128, s float64) {
	countVec()
	n := len(data) &^ 1
	if n > 0 {
		scale128Asm(&data[0], n, s)
	}
	if n < len(data) {
		scale128Scalar(data[n:], s)
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
