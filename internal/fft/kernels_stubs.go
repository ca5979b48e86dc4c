//go:build amd64 && !purego

package fft

// Assembly entry points (kernels_amd64.s). All pointers are to the first
// element of their slices; the wrappers in dispatch_amd64.go own the
// bounds, tail, and emptiness checks. Twiddle pointers address a table's
// (real, imaginary) pairs (pairs). n counts complex elements and must be a
// positive multiple of one YMM register's worth (4 complex64, 2
// complex128) for the flat kernels; the lane kernels take the per-element
// loop count m ≥ 1 directly (each step moves one 8-lane row per plane).
// The F64 bodies are the float64 twins of the float32 ones.

//go:noescape
func mulInto64Asm(dst, a, b *complex64, n int)

//go:noescape
func mulAccInto64Asm(dst, a, b *complex64, n int)

//go:noescape
func scale64Asm(data *complex64, n int, s float32)

//go:noescape
func mulInto128Asm(dst, a, b *complex128, n int)

//go:noescape
func mulAccInto128Asm(dst, a, b *complex128, n int)

//go:noescape
func scale128Asm(data *complex128, n int, s float64)

//go:noescape
func bfLaneR2Asm(dre, dim *float32, m int, w *float32, step int)

//go:noescape
func bfLaneR3Asm(dre, dim *float32, m int, w *float32, step int, wr, wi float32)

//go:noescape
func bfLaneR4Asm(dre, dim *float32, m, pn int, w *float32, step int, nr, ni float32)

//go:noescape
func bfLaneR5Asm(dre, dim *float32, m int, w *float32, step int, r1, i1, r2, i2 float32)

//go:noescape
func r2cLaneCombineAsm(zre, zim, outre, outim, wf *float32, m int)

//go:noescape
func c2rLanePreAsm(zre, zim, sre, sim, wf *float32, m int, cs float32)

//go:noescape
func bfLaneR2AsmF64(dre, dim *float64, m int, w *float64, step int)

//go:noescape
func bfLaneR3AsmF64(dre, dim *float64, m int, w *float64, step int, wr, wi float64)

//go:noescape
func bfLaneR4AsmF64(dre, dim *float64, m, pn int, w *float64, step int, nr, ni float64)

//go:noescape
func bfLaneR5AsmF64(dre, dim *float64, m int, w *float64, step int, r1, i1, r2, i2 float64)

//go:noescape
func r2cLaneCombineAsmF64(zre, zim, outre, outim, wf *float64, m int)

//go:noescape
func c2rLanePreAsmF64(zre, zim, sre, sim, wf *float64, m int, cs float64)

//go:noescape
func mulConj64Asm(dst, a, b *complex64, n int, acc bool)

//go:noescape
func mulConj128Asm(dst, a, b *complex128, n int, acc bool)

// The gathers and scatters move one block of 8 adjacent columns
// (gatherLanes/scatterLanes at cs = 1, cols = 8); es counts coefficients.

//go:noescape
func gatherLanesAsm(sre, sim *float32, b *float32, perm *int, es, n, lim int)

//go:noescape
func scatterLanesAsm(b *float32, dre, dim *float32, es, n int)

//go:noescape
func gatherLanesAsmF64(sre, sim *float64, b *float64, perm *int, es, n, lim int)

//go:noescape
func scatterLanesAsmF64(b *float64, dre, dim *float64, es, n int)
