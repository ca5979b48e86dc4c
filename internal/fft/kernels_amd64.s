//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies for the hot-path kernels of both precisions: the complex64
// and float32 ones first, their complex128 and float64 twins (F64, 128)
// after. Layout conventions:
//
//   - Flat kernels (mulInto64/mulAccInto64/scale64) work on interleaved
//     complex64 slices, 4 complex values (one YMM register) per iteration;
//     n is a multiple of 4 (dispatch wrappers run the tail in Go). The
//     interleaved complex product uses the classic dup/swap shuffle plus
//     VFMADDSUB (even float lanes subtract — the real parts; odd add —
//     the imaginary parts).
//
//   - Lane kernels work on SoA planes (see lane.go): element k of the
//     transform is 8 contiguous float32 values per plane (32 bytes, one
//     YMM), so every butterfly is pure vertical arithmetic with the
//     twiddle components broadcast from the complex64 table (real at
//     byte offset 8·i, imaginary at 8·i+4). There is one body per radix
//     the plans produce: 2, 3, 4 and 5. Leg j of a radix-r level reads
//     twiddle j·k·step, which stays below pn (k < n/r), so radix 3 and 5
//     address it as a scaled multiple of k·step; radix 4 keeps an
//     incremental compare-and-subtract that never fires.
//
// All routines are NOSPLIT leaf functions and end with VZEROUPPER to avoid
// AVX→SSE transition stalls in the surrounding Go code.

// one half in float32 (0x3F000000), broadcast by the r2c combine.
DATA f32half<>+0(SB)/4, $0x3F000000
GLOBL f32half<>(SB), RODATA, $4

// func mulInto64Asm(dst, a, b *complex64, n int)
TEXT ·mulInto64Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX

mulloop:
	VMOVUPS    (SI), Y0            // a: ar0 ai0 ar1 ai1 …
	VMOVUPS    (DX), Y1            // b
	VMOVSLDUP  Y1, Y2              // br br …
	VMOVSHDUP  Y1, Y3              // bi bi …
	VPERMILPS  $0xB1, Y0, Y4       // ai ar …
	VMULPS     Y4, Y3, Y5          // ai·bi, ar·bi
	VFMADDSUB231PS Y0, Y2, Y5      // even: ar·br−ai·bi  odd: ai·br+ar·bi
	VMOVUPS    Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mulloop
	VZEROUPPER
	RET

// func mulAccInto64Asm(dst, a, b *complex64, n int)
TEXT ·mulAccInto64Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX

accloop:
	VMOVUPS    (SI), Y0
	VMOVUPS    (DX), Y1
	VMOVSLDUP  Y1, Y2
	VMOVSHDUP  Y1, Y3
	VPERMILPS  $0xB1, Y0, Y4
	VMULPS     Y4, Y3, Y5
	VFMADDSUB231PS Y0, Y2, Y5      // Y5 = a·b
	VADDPS     (DI), Y5, Y5        // += dst
	VMOVUPS    Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  accloop
	VZEROUPPER
	RET

// func scale64Asm(data *complex64, n int, s float32)
TEXT ·scale64Asm(SB), NOSPLIT, $0-20
	MOVQ data+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS s+16(FP), Y0
	SHRQ $2, CX

scaleloop:
	VMULPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  scaleloop
	VZEROUPPER
	RET

// func bfLaneR2Asm(dre, dim *float32, m int, w *complex64, step int)
//
// Radix-2 lane butterfly over k = 0 .. m−1:
//   x = w[k·step]·b;  dst[k] = a + x;  dst[m+k] = a − x
// with a = element k, b = element m+k, 8 lanes per element.
TEXT ·bfLaneR2Asm(SB), NOSPLIT, $0-40
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	MOVQ m+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ step+32(FP), BX
	MOVQ CX, R8
	SHLQ $5, R8                    // m·32: byte offset of the second half
	SHLQ $3, BX                    // twiddle byte stride step·8
	XORQ R9, R9                    // twiddle byte offset k·step·8
	XORQ R10, R10                  // element byte offset k·32

r2loop:
	VBROADCASTSS (DX)(R9*1), Y0    // tr
	VBROADCASTSS 4(DX)(R9*1), Y1   // ti
	VMOVUPS (DI)(R10*1), Y2        // ar
	VMOVUPS (SI)(R10*1), Y3        // ai
	LEAQ (R10)(R8*1), R11
	VMOVUPS (DI)(R11*1), Y4        // br
	VMOVUPS (SI)(R11*1), Y5        // bi
	VMULPS       Y0, Y4, Y6        // br·tr
	VFNMADD231PS Y1, Y5, Y6        // − bi·ti → xr
	VMULPS       Y1, Y4, Y7        // br·ti
	VFMADD231PS  Y0, Y5, Y7        // + bi·tr → xi
	VADDPS Y6, Y2, Y8              // ar+xr
	VSUBPS Y6, Y2, Y9              // ar−xr
	VADDPS Y7, Y3, Y10             // ai+xi
	VSUBPS Y7, Y3, Y11             // ai−xi
	VMOVUPS Y8, (DI)(R10*1)
	VMOVUPS Y9, (DI)(R11*1)
	VMOVUPS Y10, (SI)(R10*1)
	VMOVUPS Y11, (SI)(R11*1)
	ADDQ BX, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  r2loop
	VZEROUPPER
	RET

// func bfLaneR4Asm(dre, dim *float32, m, pn int, w *complex64, step int, nr, ni float32)
//
// Radix-4 lane butterfly, mirroring goLanes.r4: legs b/c/d are
// twiddled by w[k·step], w[i2], w[i3] (i2, i3 tracked incrementally mod
// pn), combined through the ±1/∓i network; nr+i·ni is the quarter
// twiddle (−i forward, +i inverse).
TEXT ·bfLaneR4Asm(SB), NOSPLIT, $0-56
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	MOVQ m+16(FP), CX
	MOVQ pn+24(FP), R13
	MOVQ w+32(FP), DX
	MOVQ step+40(FP), BX
	VBROADCASTSS nr+48(FP), Y14
	VBROADCASTSS ni+52(FP), Y15
	MOVQ CX, R8
	SHLQ $5, R8                    // m·32
	SHLQ $3, BX                    // step·8
	SHLQ $3, R13                   // pn·8 (wrap bound in twiddle bytes)
	XORQ R9, R9                    // k·step·8
	XORQ R10, R10                  // k·32
	XORQ R11, R11                  // i2·8
	XORQ R12, R12                  // i3·8

r4loop:
	// b' = w[k·step]·dst[m+k]
	LEAQ (R10)(R8*1), AX
	VBROADCASTSS (DX)(R9*1), Y0
	VBROADCASTSS 4(DX)(R9*1), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y4
	VFNMADD231PS Y1, Y3, Y4        // br'
	VMULPS       Y1, Y2, Y5
	VFMADD231PS  Y0, Y3, Y5        // bi'

	// c' = w[i2]·dst[2m+k]
	LEAQ (R10)(R8*2), AX
	VBROADCASTSS (DX)(R11*1), Y0
	VBROADCASTSS 4(DX)(R11*1), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y6
	VFNMADD231PS Y1, Y3, Y6        // cr'
	VMULPS       Y1, Y2, Y7
	VFMADD231PS  Y0, Y3, Y7        // ci'

	// d' = w[i3]·dst[3m+k]
	ADDQ R8, AX
	VBROADCASTSS (DX)(R12*1), Y0
	VBROADCASTSS 4(DX)(R12*1), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y8
	VFNMADD231PS Y1, Y3, Y8        // dr'
	VMULPS       Y1, Y2, Y9
	VFMADD231PS  Y0, Y3, Y9        // di'

	// a = dst[k]
	VMOVUPS (DI)(R10*1), Y0        // ar
	VMOVUPS (SI)(R10*1), Y1        // ai

	VADDPS Y6, Y0, Y2              // apcR
	VSUBPS Y6, Y0, Y3              // amcR
	VADDPS Y7, Y1, Y6              // apcI
	VSUBPS Y7, Y1, Y7              // amcI
	VADDPS Y8, Y4, Y0              // bpdR
	VSUBPS Y8, Y4, Y8              // bmdR
	VADDPS Y9, Y5, Y1              // bpdI
	VSUBPS Y9, Y5, Y9              // bmdI

	// (jr, ji) = (nr+i·ni)·bmd
	VMULPS       Y14, Y8, Y4
	VFNMADD231PS Y15, Y9, Y4       // jr = bmdR·nr − bmdI·ni
	VMULPS       Y15, Y8, Y5
	VFMADD231PS  Y14, Y9, Y5       // ji = bmdR·ni + bmdI·nr

	VADDPS Y0, Y2, Y10             // dst[k].re    = apcR+bpdR
	VSUBPS Y0, Y2, Y11             // dst[2m+k].re = apcR−bpdR
	VADDPS Y1, Y6, Y12             // dst[k].im
	VSUBPS Y1, Y6, Y13             // dst[2m+k].im
	VMOVUPS Y10, (DI)(R10*1)
	VMOVUPS Y12, (SI)(R10*1)
	LEAQ (R10)(R8*2), AX
	VMOVUPS Y11, (DI)(AX*1)
	VMOVUPS Y13, (SI)(AX*1)

	VADDPS Y4, Y3, Y10             // dst[m+k].re  = amcR+jr
	VSUBPS Y4, Y3, Y11             // dst[3m+k].re = amcR−jr
	VADDPS Y5, Y7, Y12             // dst[m+k].im  = amcI+ji
	VSUBPS Y5, Y7, Y13             // dst[3m+k].im = amcI−ji
	LEAQ (R10)(R8*1), AX
	VMOVUPS Y10, (DI)(AX*1)
	VMOVUPS Y12, (SI)(AX*1)
	ADDQ R8, AX
	ADDQ R8, AX
	VMOVUPS Y11, (DI)(AX*1)
	VMOVUPS Y13, (SI)(AX*1)

	ADDQ $32, R10
	ADDQ BX, R9
	LEAQ (R11)(BX*2), R11          // i2 += 2·step
	CMPQ R11, R13
	JLT  r4i2ok
	SUBQ R13, R11

r4i2ok:
	LEAQ (R12)(BX*2), R12          // i3 += 3·step
	ADDQ BX, R12
	CMPQ R12, R13
	JLT  r4i3ok
	SUBQ R13, R12

r4i3ok:
	DECQ CX
	JNZ  r4loop
	VZEROUPPER
	RET

// func bfLaneR3Asm(dre, dim *float32, m int, w *complex64, step int, wr, wi float32)
//
// Radix-3 lane butterfly, mirroring goLanes.r3: legs b/c are twiddled
// by w[k·step], w[2k·step] (no wrap: 2k·step < pn), then with s = b+c,
// d = b−c and ω₃ = wr+i·wi:
//   y0 = a+s;  y1,2 = a + wr·s ± i·wi·d
TEXT ·bfLaneR3Asm(SB), NOSPLIT, $0-48
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	MOVQ m+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ step+32(FP), BX
	VBROADCASTSS wr+40(FP), Y14
	VBROADCASTSS wi+44(FP), Y15
	MOVQ CX, R8
	SHLQ $5, R8                    // m·32
	SHLQ $3, BX                    // step·8
	XORQ R9, R9                    // k·step·8
	XORQ R10, R10                  // k·32

r3loop:
	// b' = w[k·step]·dst[m+k]
	LEAQ (R10)(R8*1), AX
	VBROADCASTSS (DX)(R9*1), Y0
	VBROADCASTSS 4(DX)(R9*1), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y4
	VFNMADD231PS Y1, Y3, Y4        // br'
	VMULPS       Y1, Y2, Y5
	VFMADD231PS  Y0, Y3, Y5        // bi'

	// c' = w[2k·step]·dst[2m+k]
	LEAQ (R10)(R8*2), AX
	VBROADCASTSS (DX)(R9*2), Y0
	VBROADCASTSS 4(DX)(R9*2), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y6
	VFNMADD231PS Y1, Y3, Y6        // cr'
	VMULPS       Y1, Y2, Y7
	VFMADD231PS  Y0, Y3, Y7        // ci'

	VADDPS Y6, Y4, Y8              // sR
	VSUBPS Y6, Y4, Y9              // dR
	VADDPS Y7, Y5, Y10             // sI
	VSUBPS Y7, Y5, Y11             // dI

	// a = dst[k]; y0 = a+s
	VMOVUPS (DI)(R10*1), Y0        // ar
	VMOVUPS (SI)(R10*1), Y1        // ai
	VADDPS Y8, Y0, Y2
	VADDPS Y10, Y1, Y3
	VMOVUPS Y2, (DI)(R10*1)
	VMOVUPS Y3, (SI)(R10*1)

	// t = a + wr·s;  i·wi·d = (−wi·dI, wi·dR)
	VFMADD231PS Y14, Y8, Y0        // tR
	VFMADD231PS Y14, Y10, Y1       // tI
	VMULPS Y15, Y11, Y4            // wi·dI
	VMULPS Y15, Y9, Y5             // wi·dR
	VSUBPS Y4, Y0, Y2              // y1.re = tR − wi·dI
	VADDPS Y4, Y0, Y3              // y2.re = tR + wi·dI
	VADDPS Y5, Y1, Y6              // y1.im = tI + wi·dR
	VSUBPS Y5, Y1, Y7              // y2.im = tI − wi·dR
	VMOVUPS Y3, (DI)(AX*1)         // AX still addresses dst[2m+k]
	VMOVUPS Y7, (SI)(AX*1)
	SUBQ R8, AX
	VMOVUPS Y2, (DI)(AX*1)
	VMOVUPS Y6, (SI)(AX*1)

	ADDQ $32, R10
	ADDQ BX, R9
	DECQ CX
	JNZ  r3loop
	VZEROUPPER
	RET

// func bfLaneR5Asm(dre, dim *float32, m int, w *complex64, step int, r1, i1, r2, i2 float32)
//
// Radix-5 lane butterfly, mirroring goLanes.r5: legs 1..4 are twiddled
// by w[j·k·step] (no wrap: 4k·step < pn), then with s1,d1 = x1±x4,
// s2,d2 = x2±x3, ω₅ = r1+i·i1 and ω₅² = r2+i·i2:
//   y0   = x0 + s1 + s2
//   y1,4 = x0 + r1·s1 + r2·s2 ± i·(i1·d1 + i2·d2)
//   y2,3 = x0 + r2·s1 + r1·s2 ± i·(i2·d1 − i1·d2)
// r1 and r2 stay in registers; i1 and i2 are re-broadcast from the
// argument frame, since the ten live data vectors leave too few YMMs.
TEXT ·bfLaneR5Asm(SB), NOSPLIT, $0-56
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	MOVQ m+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ step+32(FP), BX
	VBROADCASTSS r1+40(FP), Y14
	VBROADCASTSS r2+48(FP), Y15
	MOVQ CX, R8
	SHLQ $5, R8                    // m·32
	SHLQ $3, BX                    // step·8
	XORQ R9, R9                    // k·step·8
	XORQ R10, R10                  // k·32

r5loop:
	// x1' = w[k·step]·dst[m+k]
	LEAQ (R10)(R8*1), AX
	VBROADCASTSS (DX)(R9*1), Y0
	VBROADCASTSS 4(DX)(R9*1), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y4
	VFNMADD231PS Y1, Y3, Y4
	VMULPS       Y1, Y2, Y5
	VFMADD231PS  Y0, Y3, Y5

	// x4' = w[4k·step]·dst[4m+k]
	LEAQ (R10)(R8*4), AX
	VBROADCASTSS (DX)(R9*4), Y0
	VBROADCASTSS 4(DX)(R9*4), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y6
	VFNMADD231PS Y1, Y3, Y6
	VMULPS       Y1, Y2, Y7
	VFMADD231PS  Y0, Y3, Y7

	VADDPS Y6, Y4, Y8              // s1R
	VSUBPS Y6, Y4, Y4              // d1R
	VADDPS Y7, Y5, Y9              // s1I
	VSUBPS Y7, Y5, Y5              // d1I

	// x2' = w[2k·step]·dst[2m+k]
	LEAQ (R10)(R8*2), AX
	VBROADCASTSS (DX)(R9*2), Y0
	VBROADCASTSS 4(DX)(R9*2), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y6
	VFNMADD231PS Y1, Y3, Y6
	VMULPS       Y1, Y2, Y7
	VFMADD231PS  Y0, Y3, Y7

	// x3' = w[3k·step]·dst[3m+k]
	ADDQ R8, AX
	LEAQ (R9)(R9*2), R11
	VBROADCASTSS (DX)(R11*1), Y0
	VBROADCASTSS 4(DX)(R11*1), Y1
	VMOVUPS (DI)(AX*1), Y2
	VMOVUPS (SI)(AX*1), Y3
	VMULPS       Y0, Y2, Y10
	VFNMADD231PS Y1, Y3, Y10
	VMULPS       Y1, Y2, Y11
	VFMADD231PS  Y0, Y3, Y11

	VADDPS Y10, Y6, Y0             // s2R
	VSUBPS Y10, Y6, Y6             // d2R
	VADDPS Y11, Y7, Y1             // s2I
	VSUBPS Y11, Y7, Y7             // d2I

	// x0 = dst[k]; y0 = x0 + s1 + s2
	VMOVUPS (DI)(R10*1), Y2        // x0R
	VMOVUPS (SI)(R10*1), Y3        // x0I
	VADDPS Y8, Y2, Y10
	VADDPS Y0, Y10, Y10
	VMOVUPS Y10, (DI)(R10*1)
	VADDPS Y9, Y3, Y10
	VADDPS Y1, Y10, Y10
	VMOVUPS Y10, (SI)(R10*1)

	// y1,4.re = (x0R + r1·s1R + r2·s2R) ∓ (i1·d1I + i2·d2I)
	VMOVAPS Y2, Y10
	VFMADD231PS Y14, Y8, Y10
	VFMADD231PS Y15, Y0, Y10
	VBROADCASTSS i1+44(FP), Y12
	VBROADCASTSS i2+52(FP), Y13
	VMULPS      Y12, Y5, Y11
	VFMADD231PS Y13, Y7, Y11
	VSUBPS Y11, Y10, Y12
	VADDPS Y11, Y10, Y10
	LEAQ (R10)(R8*1), AX
	VMOVUPS Y12, (DI)(AX*1)        // y1.re
	LEAQ (R10)(R8*4), R11
	VMOVUPS Y10, (DI)(R11*1)       // y4.re

	// y1,4.im = (x0I + r1·s1I + r2·s2I) ± (i1·d1R + i2·d2R)
	VMOVAPS Y3, Y10
	VFMADD231PS Y14, Y9, Y10
	VFMADD231PS Y15, Y1, Y10
	VBROADCASTSS i1+44(FP), Y12
	VBROADCASTSS i2+52(FP), Y13
	VMULPS      Y12, Y4, Y11
	VFMADD231PS Y13, Y6, Y11
	VADDPS Y11, Y10, Y12
	VSUBPS Y11, Y10, Y10
	VMOVUPS Y12, (SI)(AX*1)        // y1.im
	VMOVUPS Y10, (SI)(R11*1)       // y4.im

	// y2,3.re = (x0R + r2·s1R + r1·s2R) ∓ (i2·d1I − i1·d2I)
	VMOVAPS Y2, Y10
	VFMADD231PS Y15, Y8, Y10
	VFMADD231PS Y14, Y0, Y10
	VBROADCASTSS i2+52(FP), Y12
	VBROADCASTSS i1+44(FP), Y13
	VMULPS       Y12, Y5, Y11
	VFNMADD231PS Y13, Y7, Y11
	VSUBPS Y11, Y10, Y12
	VADDPS Y11, Y10, Y10
	LEAQ (R10)(R8*2), AX
	VMOVUPS Y12, (DI)(AX*1)        // y2.re
	LEAQ (AX)(R8*1), R11
	VMOVUPS Y10, (DI)(R11*1)       // y3.re

	// y2,3.im = (x0I + r2·s1I + r1·s2I) ± (i2·d1R − i1·d2R)
	VMOVAPS Y3, Y10
	VFMADD231PS Y15, Y9, Y10
	VFMADD231PS Y14, Y1, Y10
	VBROADCASTSS i2+52(FP), Y12
	VBROADCASTSS i1+44(FP), Y13
	VMULPS       Y12, Y4, Y11
	VFNMADD231PS Y13, Y6, Y11
	VADDPS Y11, Y10, Y12
	VSUBPS Y11, Y10, Y10
	VMOVUPS Y12, (SI)(AX*1)        // y2.im
	VMOVUPS Y10, (SI)(R11*1)       // y3.im

	ADDQ $32, R10
	ADDQ BX, R9
	DECQ CX
	JNZ  r5loop
	VZEROUPPER
	RET

// func r2cLaneCombineAsm(zre, zim, outre, outim *float32, wf *complex64, m int)
//
// Forward split butterfly over k = 1 .. m−1 (goLanes.combine):
//   fe = (z[k] + conj(z[m−k]))/2,  fo = −i·(z[k] − conj(z[m−k]))/2
//   out[k] = fe + wf[k]·fo
TEXT ·r2cLaneCombineAsm(SB), NOSPLIT, $0-48
	MOVQ zre+0(FP), DI
	MOVQ zim+8(FP), SI
	MOVQ outre+16(FP), R8
	MOVQ outim+24(FP), R9
	MOVQ wf+32(FP), DX
	MOVQ m+40(FP), CX
	VBROADCASTSS f32half<>(SB), Y15
	MOVQ CX, R11
	SHLQ $5, R11
	SUBQ $32, R11                  // down offset (m−1)·32
	MOVQ $32, R10                  // up offset, k = 1
	MOVQ $8, R12                   // twiddle byte offset wf[1]
	DECQ CX                        // m−1 iterations
	JZ   combdone

combloop:
	VBROADCASTSS (DX)(R12*1), Y8   // tr
	VBROADCASTSS 4(DX)(R12*1), Y9  // ti
	VMOVUPS (DI)(R10*1), Y0        // ar
	VMOVUPS (DI)(R11*1), Y1        // br
	VMOVUPS (SI)(R10*1), Y2        // ai
	VMOVUPS (SI)(R11*1), Y3        // bi
	VADDPS Y1, Y0, Y4
	VMULPS Y15, Y4, Y4             // feR = (ar+br)/2
	VSUBPS Y3, Y2, Y5
	VMULPS Y15, Y5, Y5             // feI = (ai−bi)/2
	VADDPS Y3, Y2, Y6
	VMULPS Y15, Y6, Y6             // foR = (ai+bi)/2
	VSUBPS Y0, Y1, Y7
	VMULPS Y15, Y7, Y7             // foI = (br−ar)/2
	VFMADD231PS  Y8, Y6, Y4        // += foR·tr
	VFNMADD231PS Y9, Y7, Y4        // −= foI·ti → outR
	VFMADD231PS  Y9, Y6, Y5        // += foR·ti
	VFMADD231PS  Y8, Y7, Y5        // += foI·tr → outI
	VMOVUPS Y4, (R8)(R10*1)
	VMOVUPS Y5, (R9)(R10*1)
	ADDQ $32, R10
	SUBQ $32, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  combloop

combdone:
	VZEROUPPER
	RET

// func c2rLanePreAsm(zre, zim, sre, sim *float32, wf *complex64, m int, cs float32)
//
// Inverse pre-pass over k = 0 .. m−1 (goLanes.pre):
//   fe = src[k] + conj(src[m−k]),  fo = (src[k] − conj(src[m−k]))·conj(wf[k])
//   z[k] = (fe + i·fo)·cs
TEXT ·c2rLanePreAsm(SB), NOSPLIT, $0-52
	MOVQ zre+0(FP), DI
	MOVQ zim+8(FP), SI
	MOVQ sre+16(FP), R8
	MOVQ sim+24(FP), R9
	MOVQ wf+32(FP), DX
	MOVQ m+40(FP), CX
	VBROADCASTSS cs+48(FP), Y15
	MOVQ CX, R11
	SHLQ $5, R11                   // down offset m·32 (k = 0 reads src[m])
	XORQ R10, R10                  // up offset
	XORQ R12, R12                  // twiddle byte offset

preloop:
	VBROADCASTSS (DX)(R12*1), Y8   // tr
	VBROADCASTSS 4(DX)(R12*1), Y9  // ti
	VMOVUPS (R8)(R10*1), Y0        // ar
	VMOVUPS (R8)(R11*1), Y1        // br
	VMOVUPS (R9)(R10*1), Y2        // ai
	VMOVUPS (R9)(R11*1), Y3        // bi
	VADDPS Y1, Y0, Y4              // feR = ar+br
	VSUBPS Y3, Y2, Y5              // feI = ai−bi
	VSUBPS Y1, Y0, Y6              // dR = ar−br
	VADDPS Y3, Y2, Y7              // dI = ai+bi
	VMULPS       Y8, Y6, Y10
	VFMADD231PS  Y9, Y7, Y10       // foR = dR·tr + dI·ti
	VMULPS       Y8, Y7, Y11
	VFNMADD231PS Y9, Y6, Y11       // foI = dI·tr − dR·ti
	VSUBPS Y11, Y4, Y12
	VMULPS Y15, Y12, Y12           // zre = (feR − foI)·cs
	VADDPS Y10, Y5, Y13
	VMULPS Y15, Y13, Y13           // zim = (feI + foR)·cs
	VMOVUPS Y12, (DI)(R10*1)
	VMOVUPS Y13, (SI)(R10*1)
	ADDQ $32, R10
	SUBQ $32, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  preloop
	VZEROUPPER
	RET

// Double precision. The complex128 flat kernels below take two
// coefficients per YMM register. The float64 lane kernels after them are
// the float32 bodies above at double width: an 8-lane row of float64 spans
// two YMM registers (64 bytes), so each body runs twice per call, once
// over lanes 0..3 and once over lanes 4..7 (the planes advanced by 32
// bytes), with the element stride 64 bytes and the twiddle stride 16 bytes
// (complex128 pairs). The second pass is recognised by DI no longer
// equalling the first plane argument.

// one half in float64 (0x3FE0000000000000), broadcast by the r2c combine.
DATA f64half<>+0(SB)/8, $0x3FE0000000000000
GLOBL f64half<>(SB), RODATA, $8

// func mulInto128Asm(dst, a, b *complex128, n int)
//
// The complex product of mulInto64Asm at two complex128 per YMM: VMOVDDUP
// and VPERMILPD stand in for the float32 dup/swap shuffles.
TEXT ·mulInto128Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $1, CX

mul128loop:
	VMOVUPD    (SI), Y0            // a: ar0 ai0 ar1 ai1
	VMOVUPD    (DX), Y1            // b
	VMOVDDUP   Y1, Y2              // br br …
	VPERMILPD  $0x0F, Y1, Y3       // bi bi …
	VPERMILPD  $0x05, Y0, Y4       // ai ar …
	VMULPD     Y4, Y3, Y5          // ai·bi, ar·bi
	VFMADDSUB231PD Y0, Y2, Y5      // even: ar·br−ai·bi  odd: ai·br+ar·bi
	VMOVUPD    Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mul128loop
	VZEROUPPER
	RET

// func mulAccInto128Asm(dst, a, b *complex128, n int)
TEXT ·mulAccInto128Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $1, CX

acc128loop:
	VMOVUPD    (SI), Y0
	VMOVUPD    (DX), Y1
	VMOVDDUP   Y1, Y2
	VPERMILPD  $0x0F, Y1, Y3
	VPERMILPD  $0x05, Y0, Y4
	VMULPD     Y4, Y3, Y5
	VFMADDSUB231PD Y0, Y2, Y5      // Y5 = a·b
	VADDPD     (DI), Y5, Y5        // += dst
	VMOVUPD    Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  acc128loop
	VZEROUPPER
	RET

// func scale128Asm(data *complex128, n int, s float64)
TEXT ·scale128Asm(SB), NOSPLIT, $0-24
	MOVQ data+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD s+16(FP), Y0
	SHRQ $1, CX

scale128loop:
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  scale128loop
	VZEROUPPER
	RET

// func bfLaneR2AsmF64(dre, dim *float64, m int, w *float64, step int)
TEXT ·bfLaneR2AsmF64(SB), NOSPLIT, $0-40
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI

r2dhalf:
	MOVQ m+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ step+32(FP), BX
	MOVQ CX, R8
	SHLQ $6, R8                    // m·64: byte offset of the second half
	SHLQ $4, BX                    // twiddle byte stride step·16
	XORQ R9, R9                    // twiddle byte offset k·step·16
	XORQ R10, R10                  // element byte offset k·64

r2dloop:
	VBROADCASTSD (DX)(R9*1), Y0    // tr
	VBROADCASTSD 8(DX)(R9*1), Y1   // ti
	VMOVUPD (DI)(R10*1), Y2        // ar
	VMOVUPD (SI)(R10*1), Y3        // ai
	LEAQ (R10)(R8*1), R11
	VMOVUPD (DI)(R11*1), Y4        // br
	VMOVUPD (SI)(R11*1), Y5        // bi
	VMULPD       Y0, Y4, Y6        // br·tr
	VFNMADD231PD Y1, Y5, Y6        // − bi·ti → xr
	VMULPD       Y1, Y4, Y7        // br·ti
	VFMADD231PD  Y0, Y5, Y7        // + bi·tr → xi
	VADDPD Y6, Y2, Y8              // ar+xr
	VSUBPD Y6, Y2, Y9              // ar−xr
	VADDPD Y7, Y3, Y10             // ai+xi
	VSUBPD Y7, Y3, Y11             // ai−xi
	VMOVUPD Y8, (DI)(R10*1)
	VMOVUPD Y9, (DI)(R11*1)
	VMOVUPD Y10, (SI)(R10*1)
	VMOVUPD Y11, (SI)(R11*1)
	ADDQ BX, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  r2dloop
	CMPQ DI, dre+0(FP)
	JNE  r2ddone
	ADDQ $32, DI
	ADDQ $32, SI
	JMP  r2dhalf

r2ddone:
	VZEROUPPER
	RET

// func bfLaneR4AsmF64(dre, dim *float64, m, pn int, w *float64, step int, nr, ni float64)
TEXT ·bfLaneR4AsmF64(SB), NOSPLIT, $0-64
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	VBROADCASTSD nr+48(FP), Y14
	VBROADCASTSD ni+56(FP), Y15

r4dhalf:
	MOVQ m+16(FP), CX
	MOVQ pn+24(FP), R13
	MOVQ w+32(FP), DX
	MOVQ step+40(FP), BX
	MOVQ CX, R8
	SHLQ $6, R8                    // m·64
	SHLQ $4, BX                    // step·16
	SHLQ $4, R13                   // pn·16 (wrap bound in twiddle bytes)
	XORQ R9, R9                    // k·step·16
	XORQ R10, R10                  // k·64
	XORQ R11, R11                  // i2·16
	XORQ R12, R12                  // i3·16

r4dloop:
	// b' = w[k·step]·dst[m+k]
	LEAQ (R10)(R8*1), AX
	VBROADCASTSD (DX)(R9*1), Y0
	VBROADCASTSD 8(DX)(R9*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y4
	VFNMADD231PD Y1, Y3, Y4        // br'
	VMULPD       Y1, Y2, Y5
	VFMADD231PD  Y0, Y3, Y5        // bi'

	// c' = w[i2]·dst[2m+k]
	LEAQ (R10)(R8*2), AX
	VBROADCASTSD (DX)(R11*1), Y0
	VBROADCASTSD 8(DX)(R11*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y6
	VFNMADD231PD Y1, Y3, Y6        // cr'
	VMULPD       Y1, Y2, Y7
	VFMADD231PD  Y0, Y3, Y7        // ci'

	// d' = w[i3]·dst[3m+k]
	ADDQ R8, AX
	VBROADCASTSD (DX)(R12*1), Y0
	VBROADCASTSD 8(DX)(R12*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y8
	VFNMADD231PD Y1, Y3, Y8        // dr'
	VMULPD       Y1, Y2, Y9
	VFMADD231PD  Y0, Y3, Y9        // di'

	// a = dst[k]
	VMOVUPD (DI)(R10*1), Y0        // ar
	VMOVUPD (SI)(R10*1), Y1        // ai

	VADDPD Y6, Y0, Y2              // apcR
	VSUBPD Y6, Y0, Y3              // amcR
	VADDPD Y7, Y1, Y6              // apcI
	VSUBPD Y7, Y1, Y7              // amcI
	VADDPD Y8, Y4, Y0              // bpdR
	VSUBPD Y8, Y4, Y8              // bmdR
	VADDPD Y9, Y5, Y1              // bpdI
	VSUBPD Y9, Y5, Y9              // bmdI

	// (jr, ji) = (nr+i·ni)·bmd
	VMULPD       Y14, Y8, Y4
	VFNMADD231PD Y15, Y9, Y4       // jr = bmdR·nr − bmdI·ni
	VMULPD       Y15, Y8, Y5
	VFMADD231PD  Y14, Y9, Y5       // ji = bmdR·ni + bmdI·nr

	VADDPD Y0, Y2, Y10             // dst[k].re    = apcR+bpdR
	VSUBPD Y0, Y2, Y11             // dst[2m+k].re = apcR−bpdR
	VADDPD Y1, Y6, Y12             // dst[k].im
	VSUBPD Y1, Y6, Y13             // dst[2m+k].im
	VMOVUPD Y10, (DI)(R10*1)
	VMOVUPD Y12, (SI)(R10*1)
	LEAQ (R10)(R8*2), AX
	VMOVUPD Y11, (DI)(AX*1)
	VMOVUPD Y13, (SI)(AX*1)

	VADDPD Y4, Y3, Y10             // dst[m+k].re  = amcR+jr
	VSUBPD Y4, Y3, Y11             // dst[3m+k].re = amcR−jr
	VADDPD Y5, Y7, Y12             // dst[m+k].im  = amcI+ji
	VSUBPD Y5, Y7, Y13             // dst[3m+k].im = amcI−ji
	LEAQ (R10)(R8*1), AX
	VMOVUPD Y10, (DI)(AX*1)
	VMOVUPD Y12, (SI)(AX*1)
	ADDQ R8, AX
	ADDQ R8, AX
	VMOVUPD Y11, (DI)(AX*1)
	VMOVUPD Y13, (SI)(AX*1)

	ADDQ $64, R10
	ADDQ BX, R9
	LEAQ (R11)(BX*2), R11          // i2 += 2·step
	CMPQ R11, R13
	JLT  r4di2ok
	SUBQ R13, R11

r4di2ok:
	LEAQ (R12)(BX*2), R12          // i3 += 3·step
	ADDQ BX, R12
	CMPQ R12, R13
	JLT  r4di3ok
	SUBQ R13, R12

r4di3ok:
	DECQ CX
	JNZ  r4dloop
	CMPQ DI, dre+0(FP)
	JNE  r4ddone
	ADDQ $32, DI
	ADDQ $32, SI
	JMP  r4dhalf

r4ddone:
	VZEROUPPER
	RET

// func bfLaneR3AsmF64(dre, dim *float64, m int, w *float64, step int, wr, wi float64)
TEXT ·bfLaneR3AsmF64(SB), NOSPLIT, $0-56
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	VBROADCASTSD wr+40(FP), Y14
	VBROADCASTSD wi+48(FP), Y15

r3dhalf:
	MOVQ m+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ step+32(FP), BX
	MOVQ CX, R8
	SHLQ $6, R8                    // m·64
	SHLQ $4, BX                    // step·16
	XORQ R9, R9                    // k·step·16
	XORQ R10, R10                  // k·64

r3dloop:
	// b' = w[k·step]·dst[m+k]
	LEAQ (R10)(R8*1), AX
	VBROADCASTSD (DX)(R9*1), Y0
	VBROADCASTSD 8(DX)(R9*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y4
	VFNMADD231PD Y1, Y3, Y4        // br'
	VMULPD       Y1, Y2, Y5
	VFMADD231PD  Y0, Y3, Y5        // bi'

	// c' = w[2k·step]·dst[2m+k]
	LEAQ (R10)(R8*2), AX
	VBROADCASTSD (DX)(R9*2), Y0
	VBROADCASTSD 8(DX)(R9*2), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y6
	VFNMADD231PD Y1, Y3, Y6        // cr'
	VMULPD       Y1, Y2, Y7
	VFMADD231PD  Y0, Y3, Y7        // ci'

	VADDPD Y6, Y4, Y8              // sR
	VSUBPD Y6, Y4, Y9              // dR
	VADDPD Y7, Y5, Y10             // sI
	VSUBPD Y7, Y5, Y11             // dI

	// a = dst[k]; y0 = a+s
	VMOVUPD (DI)(R10*1), Y0        // ar
	VMOVUPD (SI)(R10*1), Y1        // ai
	VADDPD Y8, Y0, Y2
	VADDPD Y10, Y1, Y3
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, (SI)(R10*1)

	// t = a + wr·s;  i·wi·d = (−wi·dI, wi·dR)
	VFMADD231PD Y14, Y8, Y0        // tR
	VFMADD231PD Y14, Y10, Y1       // tI
	VMULPD Y15, Y11, Y4            // wi·dI
	VMULPD Y15, Y9, Y5             // wi·dR
	VSUBPD Y4, Y0, Y2              // y1.re = tR − wi·dI
	VADDPD Y4, Y0, Y3              // y2.re = tR + wi·dI
	VADDPD Y5, Y1, Y6              // y1.im = tI + wi·dR
	VSUBPD Y5, Y1, Y7              // y2.im = tI − wi·dR
	VMOVUPD Y3, (DI)(AX*1)         // AX still addresses dst[2m+k]
	VMOVUPD Y7, (SI)(AX*1)
	SUBQ R8, AX
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD Y6, (SI)(AX*1)

	ADDQ $64, R10
	ADDQ BX, R9
	DECQ CX
	JNZ  r3dloop
	CMPQ DI, dre+0(FP)
	JNE  r3ddone
	ADDQ $32, DI
	ADDQ $32, SI
	JMP  r3dhalf

r3ddone:
	VZEROUPPER
	RET

// func bfLaneR5AsmF64(dre, dim *float64, m int, w *float64, step int, r1, i1, r2, i2 float64)
TEXT ·bfLaneR5AsmF64(SB), NOSPLIT, $0-72
	MOVQ dre+0(FP), DI
	MOVQ dim+8(FP), SI
	VBROADCASTSD r1+40(FP), Y14
	VBROADCASTSD r2+56(FP), Y15

r5dhalf:
	MOVQ m+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ step+32(FP), BX
	MOVQ CX, R8
	SHLQ $6, R8                    // m·64
	SHLQ $4, BX                    // step·16
	XORQ R9, R9                    // k·step·16
	XORQ R10, R10                  // k·64

r5dloop:
	// x1' = w[k·step]·dst[m+k]
	LEAQ (R10)(R8*1), AX
	VBROADCASTSD (DX)(R9*1), Y0
	VBROADCASTSD 8(DX)(R9*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y4
	VFNMADD231PD Y1, Y3, Y4
	VMULPD       Y1, Y2, Y5
	VFMADD231PD  Y0, Y3, Y5

	// x4' = w[4k·step]·dst[4m+k]
	LEAQ (R10)(R8*4), AX
	VBROADCASTSD (DX)(R9*4), Y0
	VBROADCASTSD 8(DX)(R9*4), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y6
	VFNMADD231PD Y1, Y3, Y6
	VMULPD       Y1, Y2, Y7
	VFMADD231PD  Y0, Y3, Y7

	VADDPD Y6, Y4, Y8              // s1R
	VSUBPD Y6, Y4, Y4              // d1R
	VADDPD Y7, Y5, Y9              // s1I
	VSUBPD Y7, Y5, Y5              // d1I

	// x2' = w[2k·step]·dst[2m+k]
	LEAQ (R10)(R8*2), AX
	VBROADCASTSD (DX)(R9*2), Y0
	VBROADCASTSD 8(DX)(R9*2), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y6
	VFNMADD231PD Y1, Y3, Y6
	VMULPD       Y1, Y2, Y7
	VFMADD231PD  Y0, Y3, Y7

	// x3' = w[3k·step]·dst[3m+k]
	ADDQ R8, AX
	LEAQ (R9)(R9*2), R11
	VBROADCASTSD (DX)(R11*1), Y0
	VBROADCASTSD 8(DX)(R11*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMOVUPD (SI)(AX*1), Y3
	VMULPD       Y0, Y2, Y10
	VFNMADD231PD Y1, Y3, Y10
	VMULPD       Y1, Y2, Y11
	VFMADD231PD  Y0, Y3, Y11

	VADDPD Y10, Y6, Y0             // s2R
	VSUBPD Y10, Y6, Y6             // d2R
	VADDPD Y11, Y7, Y1             // s2I
	VSUBPD Y11, Y7, Y7             // d2I

	// x0 = dst[k]; y0 = x0 + s1 + s2
	VMOVUPD (DI)(R10*1), Y2        // x0R
	VMOVUPD (SI)(R10*1), Y3        // x0I
	VADDPD Y8, Y2, Y10
	VADDPD Y0, Y10, Y10
	VMOVUPD Y10, (DI)(R10*1)
	VADDPD Y9, Y3, Y10
	VADDPD Y1, Y10, Y10
	VMOVUPD Y10, (SI)(R10*1)

	// y1,4.re = (x0R + r1·s1R + r2·s2R) ∓ (i1·d1I + i2·d2I)
	VMOVAPD Y2, Y10
	VFMADD231PD Y14, Y8, Y10
	VFMADD231PD Y15, Y0, Y10
	VBROADCASTSD i1+48(FP), Y12
	VBROADCASTSD i2+64(FP), Y13
	VMULPD      Y12, Y5, Y11
	VFMADD231PD Y13, Y7, Y11
	VSUBPD Y11, Y10, Y12
	VADDPD Y11, Y10, Y10
	LEAQ (R10)(R8*1), AX
	VMOVUPD Y12, (DI)(AX*1)        // y1.re
	LEAQ (R10)(R8*4), R11
	VMOVUPD Y10, (DI)(R11*1)       // y4.re

	// y1,4.im = (x0I + r1·s1I + r2·s2I) ± (i1·d1R + i2·d2R)
	VMOVAPD Y3, Y10
	VFMADD231PD Y14, Y9, Y10
	VFMADD231PD Y15, Y1, Y10
	VBROADCASTSD i1+48(FP), Y12
	VBROADCASTSD i2+64(FP), Y13
	VMULPD      Y12, Y4, Y11
	VFMADD231PD Y13, Y6, Y11
	VADDPD Y11, Y10, Y12
	VSUBPD Y11, Y10, Y10
	VMOVUPD Y12, (SI)(AX*1)        // y1.im
	VMOVUPD Y10, (SI)(R11*1)       // y4.im

	// y2,3.re = (x0R + r2·s1R + r1·s2R) ∓ (i2·d1I − i1·d2I)
	VMOVAPD Y2, Y10
	VFMADD231PD Y15, Y8, Y10
	VFMADD231PD Y14, Y0, Y10
	VBROADCASTSD i2+64(FP), Y12
	VBROADCASTSD i1+48(FP), Y13
	VMULPD       Y12, Y5, Y11
	VFNMADD231PD Y13, Y7, Y11
	VSUBPD Y11, Y10, Y12
	VADDPD Y11, Y10, Y10
	LEAQ (R10)(R8*2), AX
	VMOVUPD Y12, (DI)(AX*1)        // y2.re
	LEAQ (AX)(R8*1), R11
	VMOVUPD Y10, (DI)(R11*1)       // y3.re

	// y2,3.im = (x0I + r2·s1I + r1·s2I) ± (i2·d1R − i1·d2R)
	VMOVAPD Y3, Y10
	VFMADD231PD Y15, Y9, Y10
	VFMADD231PD Y14, Y1, Y10
	VBROADCASTSD i2+64(FP), Y12
	VBROADCASTSD i1+48(FP), Y13
	VMULPD       Y12, Y4, Y11
	VFNMADD231PD Y13, Y6, Y11
	VADDPD Y11, Y10, Y12
	VSUBPD Y11, Y10, Y10
	VMOVUPD Y12, (SI)(AX*1)        // y2.im
	VMOVUPD Y10, (SI)(R11*1)       // y3.im

	ADDQ $64, R10
	ADDQ BX, R9
	DECQ CX
	JNZ  r5dloop
	CMPQ DI, dre+0(FP)
	JNE  r5ddone
	ADDQ $32, DI
	ADDQ $32, SI
	JMP  r5dhalf

r5ddone:
	VZEROUPPER
	RET

// func r2cLaneCombineAsmF64(zre, zim, outre, outim, wf *float64, m int)
TEXT ·r2cLaneCombineAsmF64(SB), NOSPLIT, $0-48
	MOVQ zre+0(FP), DI
	MOVQ zim+8(FP), SI
	MOVQ outre+16(FP), R8
	MOVQ outim+24(FP), R9
	MOVQ wf+32(FP), DX
	VBROADCASTSD f64half<>(SB), Y15

cbdhalf:
	MOVQ m+40(FP), CX
	MOVQ CX, R11
	SHLQ $6, R11
	SUBQ $64, R11                  // down offset (m−1)·64
	MOVQ $64, R10                  // up offset, k = 1
	MOVQ $16, R12                  // twiddle byte offset wf[1]
	DECQ CX                        // m−1 iterations
	JZ   cbdnext

cbdloop:
	VBROADCASTSD (DX)(R12*1), Y8   // tr
	VBROADCASTSD 8(DX)(R12*1), Y9  // ti
	VMOVUPD (DI)(R10*1), Y0        // ar
	VMOVUPD (DI)(R11*1), Y1        // br
	VMOVUPD (SI)(R10*1), Y2        // ai
	VMOVUPD (SI)(R11*1), Y3        // bi
	VADDPD Y1, Y0, Y4
	VMULPD Y15, Y4, Y4             // feR = (ar+br)/2
	VSUBPD Y3, Y2, Y5
	VMULPD Y15, Y5, Y5             // feI = (ai−bi)/2
	VADDPD Y3, Y2, Y6
	VMULPD Y15, Y6, Y6             // foR = (ai+bi)/2
	VSUBPD Y0, Y1, Y7
	VMULPD Y15, Y7, Y7             // foI = (br−ar)/2
	VFMADD231PD  Y8, Y6, Y4        // += foR·tr
	VFNMADD231PD Y9, Y7, Y4        // −= foI·ti → outR
	VFMADD231PD  Y9, Y6, Y5        // += foR·ti
	VFMADD231PD  Y8, Y7, Y5        // += foI·tr → outI
	VMOVUPD Y4, (R8)(R10*1)
	VMOVUPD Y5, (R9)(R10*1)
	ADDQ $64, R10
	SUBQ $64, R11
	ADDQ $16, R12
	DECQ CX
	JNZ  cbdloop

cbdnext:
	CMPQ DI, zre+0(FP)
	JNE  cbddone
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	JMP  cbdhalf

cbddone:
	VZEROUPPER
	RET

// func c2rLanePreAsmF64(zre, zim, sre, sim, wf *float64, m int, cs float64)
TEXT ·c2rLanePreAsmF64(SB), NOSPLIT, $0-56
	MOVQ zre+0(FP), DI
	MOVQ zim+8(FP), SI
	MOVQ sre+16(FP), R8
	MOVQ sim+24(FP), R9
	MOVQ wf+32(FP), DX
	VBROADCASTSD cs+48(FP), Y15

prdhalf:
	MOVQ m+40(FP), CX
	MOVQ CX, R11
	SHLQ $6, R11                   // down offset m·64 (k = 0 reads src[m])
	XORQ R10, R10                  // up offset
	XORQ R12, R12                  // twiddle byte offset

prdloop:
	VBROADCASTSD (DX)(R12*1), Y8   // tr
	VBROADCASTSD 8(DX)(R12*1), Y9  // ti
	VMOVUPD (R8)(R10*1), Y0        // ar
	VMOVUPD (R8)(R11*1), Y1        // br
	VMOVUPD (R9)(R10*1), Y2        // ai
	VMOVUPD (R9)(R11*1), Y3        // bi
	VADDPD Y1, Y0, Y4              // feR = ar+br
	VSUBPD Y3, Y2, Y5              // feI = ai−bi
	VSUBPD Y1, Y0, Y6              // dR = ar−br
	VADDPD Y3, Y2, Y7              // dI = ai+bi
	VMULPD       Y8, Y6, Y10
	VFMADD231PD  Y9, Y7, Y10       // foR = dR·tr + dI·ti
	VMULPD       Y8, Y7, Y11
	VFNMADD231PD Y9, Y6, Y11       // foI = dI·tr − dR·ti
	VSUBPD Y11, Y4, Y12
	VMULPD Y15, Y12, Y12           // zre = (feR − foI)·cs
	VADDPD Y10, Y5, Y13
	VMULPD Y15, Y13, Y13           // zim = (feI + foR)·cs
	VMOVUPD Y12, (DI)(R10*1)
	VMOVUPD Y13, (SI)(R10*1)
	ADDQ $64, R10
	SUBQ $64, R11
	ADDQ $16, R12
	DECQ CX
	JNZ  prdloop
	CMPQ DI, zre+0(FP)
	JNE  prddone
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	JMP  prdhalf

prddone:
	VZEROUPPER
	RET

// func mulConj64Asm(dst, a, b *complex64, n int, acc bool)
//
// dst (+)= a·conj(b): the product of mulInto64Asm with b's imaginary parts
// negated and without FMA. Both products round before VADDSUBPS sums
// them, the operation order of the Go twin (mulConjScalar), so the two
// agree bit for bit; acc adds the old dst last, as the twin does.
TEXT ·mulConj64Asm(SB), NOSPLIT, $0-33
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), DX
	MOVQ    n+24(FP), CX
	MOVBQZX acc+32(FP), AX
	SHRQ    $2, CX
	VPCMPEQD Y7, Y7, Y7
	VPSLLD   $31, Y7, Y7           // float32 sign bits

conj64loop:
	VMOVUPS    (SI), Y0            // a: ar ai …
	VMOVUPS    (DX), Y1            // b
	VMOVSLDUP  Y1, Y2              // br br …
	VMOVSHDUP  Y1, Y3              // bi bi …
	VXORPS     Y7, Y3, Y3          // −bi −bi …
	VPERMILPS  $0xB1, Y0, Y4       // ai ar …
	VMULPS     Y2, Y0, Y5          // ar·br, ai·br
	VMULPS     Y3, Y4, Y6          // −ai·bi, −ar·bi
	VADDSUBPS  Y6, Y5, Y5          // even: ar·br+ai·bi  odd: ai·br−ar·bi
	TESTQ AX, AX
	JZ    conj64store
	VADDPS (DI), Y5, Y5            // += dst

conj64store:
	VMOVUPS Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  conj64loop
	VZEROUPPER
	RET

// func mulConj128Asm(dst, a, b *complex128, n int, acc bool)
//
// The conjugate product of mulConj64Asm at two complex128 per YMM.
TEXT ·mulConj128Asm(SB), NOSPLIT, $0-33
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), DX
	MOVQ    n+24(FP), CX
	MOVBQZX acc+32(FP), AX
	SHRQ    $1, CX
	VPCMPEQQ Y7, Y7, Y7
	VPSLLQ   $63, Y7, Y7           // float64 sign bits

conj128loop:
	VMOVUPD    (SI), Y0            // a: ar0 ai0 ar1 ai1
	VMOVUPD    (DX), Y1            // b
	VMOVDDUP   Y1, Y2              // br br …
	VPERMILPD  $0x0F, Y1, Y3       // bi bi …
	VXORPD     Y7, Y3, Y3          // −bi −bi …
	VPERMILPD  $0x05, Y0, Y4       // ai ar …
	VMULPD     Y2, Y0, Y5          // ar·br, ai·br
	VMULPD     Y3, Y4, Y6          // −ai·bi, −ar·bi
	VADDSUBPD  Y6, Y5, Y5          // even: ar·br+ai·bi  odd: ai·br−ar·bi
	TESTQ AX, AX
	JZ    conj128store
	VADDPD (DI), Y5, Y5            // += dst

conj128store:
	VMOVUPD Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  conj128loop
	VZEROUPPER
	RET

// func gatherLanesAsm(sre, sim *float32, b *float32, perm *int, es, n, lim int)
//
// Plane row p (8 floats per plane) takes the 8 adjacent complex64 values
// of element j = perm[p] (p when perm is nil) at b + j·es, split into real
// and imaginary parts; rows with j ≥ lim are zeroed without a load. Two
// 128-bit loads with VINSERTF128 pair coefficients 0,1|4,5 and 2,3|6,7,
// so one in-lane VSHUFPS per plane puts all 8 in natural order.
TEXT ·gatherLanesAsm(SB), NOSPLIT, $0-56
	MOVQ sre+0(FP), DI
	MOVQ sim+8(FP), DX
	MOVQ b+16(FP), BX
	MOVQ perm+24(FP), R9
	MOVQ es+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ lim+48(FP), R10
	SHLQ $3, R8                    // element stride in bytes
	XORQ R11, R11                  // p
	VXORPS Y15, Y15, Y15

g32loop:
	MOVQ  R11, AX
	TESTQ R9, R9
	JZ    g32elem
	MOVQ  (R9)(R11*8), AX          // j = perm[p]

g32elem:
	CMPQ AX, R10
	JGE  g32zero
	IMULQ R8, AX
	LEAQ (BX)(AX*1), SI
	VMOVUPS     (SI), X0                // r0 i0 r1 i1
	VINSERTF128 $1, 32(SI), Y0, Y0      // | r4 i4 r5 i5
	VMOVUPS     16(SI), X1              // r2 i2 r3 i3
	VINSERTF128 $1, 48(SI), Y1, Y1      // | r6 i6 r7 i7
	VSHUFPS $0x88, Y1, Y0, Y2           // r0 r1 r2 r3 | r4 r5 r6 r7
	VSHUFPS $0xDD, Y1, Y0, Y3           // i0 … i7
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, (DX)
	JMP g32next

g32zero:
	VMOVUPS Y15, (DI)
	VMOVUPS Y15, (DX)

g32next:
	ADDQ $32, DI
	ADDQ $32, DX
	INCQ R11
	CMPQ R11, CX
	JLT  g32loop
	VZEROUPPER
	RET

// func scatterLanesAsm(b *float32, dre, dim *float32, es, n int)
//
// The inverse of gatherLanesAsm in natural order: row j of the planes
// interleaves back into the 8 complex64 values at b + j·es.
TEXT ·scatterLanesAsm(SB), NOSPLIT, $0-40
	MOVQ b+0(FP), BX
	MOVQ dre+8(FP), DI
	MOVQ dim+16(FP), DX
	MOVQ es+24(FP), R8
	MOVQ n+32(FP), CX
	SHLQ $3, R8

s32loop:
	VMOVUPS (DI), Y0               // r0 … r7
	VMOVUPS (DX), Y1               // i0 … i7
	VUNPCKLPS Y1, Y0, Y2           // r0 i0 r1 i1 | r4 i4 r5 i5
	VUNPCKHPS Y1, Y0, Y3           // r2 i2 r3 i3 | r6 i6 r7 i7
	VMOVUPS X2, (BX)
	VMOVUPS X3, 16(BX)
	VEXTRACTF128 $1, Y2, 32(BX)
	VEXTRACTF128 $1, Y3, 48(BX)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ R8, BX
	DECQ CX
	JNZ  s32loop
	VZEROUPPER
	RET

// func gatherLanesAsmF64(sre, sim *float64, b *float64, perm *int, es, n, lim int)
//
// gatherLanesAsm at float64: a row is 8 complex128 values (128 bytes) and
// two YMM per plane; 128-bit loads pair coefficients 0|2 and 1|3 so one
// VUNPCKLPD/VUNPCKHPD per half-row puts them in natural order.
TEXT ·gatherLanesAsmF64(SB), NOSPLIT, $0-56
	MOVQ sre+0(FP), DI
	MOVQ sim+8(FP), DX
	MOVQ b+16(FP), BX
	MOVQ perm+24(FP), R9
	MOVQ es+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ lim+48(FP), R10
	SHLQ $4, R8                    // element stride in bytes
	XORQ R11, R11                  // p
	VXORPD Y15, Y15, Y15

g64loop:
	MOVQ  R11, AX
	TESTQ R9, R9
	JZ    g64elem
	MOVQ  (R9)(R11*8), AX          // j = perm[p]

g64elem:
	CMPQ AX, R10
	JGE  g64zero
	IMULQ R8, AX
	LEAQ (BX)(AX*1), SI
	VMOVUPD     (SI), X0                // r0 i0
	VINSERTF128 $1, 32(SI), Y0, Y0      // | r2 i2
	VMOVUPD     16(SI), X1              // r1 i1
	VINSERTF128 $1, 48(SI), Y1, Y1      // | r3 i3
	VMOVUPD     64(SI), X4              // r4 i4
	VINSERTF128 $1, 96(SI), Y4, Y4      // | r6 i6
	VMOVUPD     80(SI), X5              // r5 i5
	VINSERTF128 $1, 112(SI), Y5, Y5     // | r7 i7
	VUNPCKLPD Y1, Y0, Y2                // r0 r1 r2 r3
	VUNPCKHPD Y1, Y0, Y3                // i0 i1 i2 i3
	VUNPCKLPD Y5, Y4, Y6                // r4 r5 r6 r7
	VUNPCKHPD Y5, Y4, Y7                // i4 i5 i6 i7
	VMOVUPD Y2, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y3, (DX)
	VMOVUPD Y7, 32(DX)
	JMP g64next

g64zero:
	VMOVUPD Y15, (DI)
	VMOVUPD Y15, 32(DI)
	VMOVUPD Y15, (DX)
	VMOVUPD Y15, 32(DX)

g64next:
	ADDQ $64, DI
	ADDQ $64, DX
	INCQ R11
	CMPQ R11, CX
	JLT  g64loop
	VZEROUPPER
	RET

// func scatterLanesAsmF64(b *float64, dre, dim *float64, es, n int)
//
// The inverse of gatherLanesAsmF64 in natural order.
TEXT ·scatterLanesAsmF64(SB), NOSPLIT, $0-40
	MOVQ b+0(FP), BX
	MOVQ dre+8(FP), DI
	MOVQ dim+16(FP), DX
	MOVQ es+24(FP), R8
	MOVQ n+32(FP), CX
	SHLQ $4, R8

s64loop:
	VMOVUPD (DI), Y0               // r0 r1 r2 r3
	VMOVUPD 32(DI), Y1             // r4 … r7
	VMOVUPD (DX), Y2               // i0 i1 i2 i3
	VMOVUPD 32(DX), Y3             // i4 … i7
	VUNPCKLPD Y2, Y0, Y4           // r0 i0 | r2 i2
	VUNPCKHPD Y2, Y0, Y5           // r1 i1 | r3 i3
	VUNPCKLPD Y3, Y1, Y6           // r4 i4 | r6 i6
	VUNPCKHPD Y3, Y1, Y7           // r5 i5 | r7 i7
	VMOVUPD X4, (BX)
	VMOVUPD X5, 16(BX)
	VEXTRACTF128 $1, Y4, 32(BX)
	VEXTRACTF128 $1, Y5, 48(BX)
	VMOVUPD X6, 64(BX)
	VMOVUPD X7, 80(BX)
	VEXTRACTF128 $1, Y6, 96(BX)
	VEXTRACTF128 $1, Y7, 112(BX)
	ADDQ $64, DI
	ADDQ $64, DX
	ADDQ R8, BX
	DECQ CX
	JNZ  s64loop
	VZEROUPPER
	RET
