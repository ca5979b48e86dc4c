//go:build amd64 && !purego

package fft

// Assembly entry points (kernels64_amd64.s). All pointers are to the first
// element of their slices; the wrappers in dispatch_amd64.go own the
// bounds, tail, and emptiness checks. n counts complex64 elements and must
// be a positive multiple of 4 for the flat kernels; the lane kernels take
// the per-element loop count m ≥ 1 directly (each step moves one 8-float
// lane row per plane).

//go:noescape
func mulInto64Asm(dst, a, b *complex64, n int)

//go:noescape
func mulAccInto64Asm(dst, a, b *complex64, n int)

//go:noescape
func scale64Asm(data *complex64, n int, s float32)

//go:noescape
func bfLaneR2Asm(dre, dim *float32, m int, w *complex64, step int)

//go:noescape
func bfLaneR3Asm(dre, dim *float32, m int, w *complex64, step int, wr, wi float32)

//go:noescape
func bfLaneR4Asm(dre, dim *float32, m, pn int, w *complex64, step int, nr, ni float32)

//go:noescape
func bfLaneR5Asm(dre, dim *float32, m int, w *complex64, step int, r1, i1, r2, i2 float32)

//go:noescape
func r2cLaneCombineAsm(zre, zim, outre, outim *float32, wf *complex64, m int)

//go:noescape
func c2rLanePreAsm(zre, zim, sre, sim *float32, wf *complex64, m int, cs float32)
