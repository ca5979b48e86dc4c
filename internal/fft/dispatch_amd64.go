//go:build amd64 && !purego

package fft

import "znn/internal/cpu"

// init swaps the AVX2 kernel set into the dispatch table when the CPU
// supports it (AVX2 + FMA + OS YMM state).
func init() {
	if !cpu.VectorOK() {
		return
	}
	mulInto64 = mulInto64AVX2
	mulAccInto64 = mulAccInto64AVX2
	scale64 = scale64AVX2
	bfLaneR2 = bfLaneR2AVX2
	bfLaneR3 = bfLaneR3AVX2
	bfLaneR4 = bfLaneR4AVX2
	bfLaneR5 = bfLaneR5AVX2
	r2cLaneCombine = r2cLaneCombineAVX2
	c2rLanePre = c2rLanePreAVX2
	laneBatch = true
	vecActive = true
	kernelPath = "avx2"
}

// The exported wrappers below bridge the asm bodies (which require whole
// vector groups) to arbitrary slice lengths: the assembly processes the
// aligned-count prefix and the scalar kernel finishes the tail. countVec
// rides the flat kernels here because they are called once per spectrum.

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

// The lane kernels operate on whole lanes-wide planes, so no tails: m may
// be any value (each k step is one full 8-float row per plane).

func bfLaneR2AVX2(dre, dim []float32, m int, w []complex64, step int) {
	if m == 0 {
		return
	}
	bfLaneR2Asm(&dre[0], &dim[0], m, &w[0], step)
}

func bfLaneR3AVX2(dre, dim []float32, m int, w []complex64, step int, wr, wi float32) {
	if m == 0 {
		return
	}
	bfLaneR3Asm(&dre[0], &dim[0], m, &w[0], step, wr, wi)
}

func bfLaneR4AVX2(dre, dim []float32, m, pn int, w []complex64, step int, nr, ni float32) {
	if m == 0 {
		return
	}
	bfLaneR4Asm(&dre[0], &dim[0], m, pn, &w[0], step, nr, ni)
}

func bfLaneR5AVX2(dre, dim []float32, m int, w []complex64, step int, r1, i1, r2, i2 float32) {
	if m == 0 {
		return
	}
	bfLaneR5Asm(&dre[0], &dim[0], m, &w[0], step, r1, i1, r2, i2)
}

func r2cLaneCombineAVX2(zre, zim, outre, outim []float32, wf []complex64, m int) {
	if m <= 1 {
		return
	}
	r2cLaneCombineAsm(&zre[0], &zim[0], &outre[0], &outim[0], &wf[0], m)
}

func c2rLanePreAVX2(zre, zim, sre, sim []float32, wf []complex64, m int, cs float32) {
	if m == 0 {
		return
	}
	c2rLanePreAsm(&zre[0], &zim[0], &sre[0], &sim[0], &wf[0], m, cs)
}
