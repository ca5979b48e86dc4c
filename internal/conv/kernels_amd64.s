//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA bodies of the direct-convolution primitives (kernels.go holds the
// Go twins and the rounding contract). Each output value is an FMA chain from
// +0 in tap (or element) order, one YMM lane per value, so every lane rounds
// exactly like the twin's math.FMA. NOSPLIT leaf functions; VZEROUPPER on
// exit avoids AVX→SSE transition stalls in the surrounding Go code.

// func gatherAsm(dst *float64, n int, srcs *[]float64, w *float64, nt int)
//
// dst[i] = Σ_t w[t]·srcs[t][i] for i in [0, n), n ≥ 32, nt ≥ 1; each tap's
// source is its own slice (24-byte headers, data pointer first). Blocks of
// 32 voxels live in Y0–Y7 across the whole tap loop; the final block starts
// at n−32 and may overlap the previous one.
TEXT ·gatherAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ srcs+16(FP), SI
	MOVQ w+24(FP), R8
	MOVQ nt+32(FP), R10
	SUBQ $32, DX
	SHLQ $3, DX                    // byte offset of the final block
	XORQ BX, BX                    // byte offset of the current block

gblock:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9                    // &srcs[0]
	XORQ R11, R11                  // tap index

gtap:
	MOVQ (R9), R12
	LEAQ (R12)(BX*1), R13          // srcs[t] + block
	VBROADCASTSD (R8)(R11*8), Y8   // w[t]
	VFMADD231PD (R13), Y8, Y0
	VFMADD231PD 32(R13), Y8, Y1
	VFMADD231PD 64(R13), Y8, Y2
	VFMADD231PD 96(R13), Y8, Y3
	VFMADD231PD 128(R13), Y8, Y4
	VFMADD231PD 160(R13), Y8, Y5
	VFMADD231PD 192(R13), Y8, Y6
	VFMADD231PD 224(R13), Y8, Y7
	ADDQ $24, R9
	INCQ R11
	CMPQ R11, R10
	JLT  gtap

	LEAQ (DI)(BX*1), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	VMOVUPD Y4, 128(R13)
	VMOVUPD Y5, 160(R13)
	VMOVUPD Y6, 192(R13)
	VMOVUPD Y7, 224(R13)
	CMPQ BX, DX
	JEQ  gdone
	ADDQ $256, BX
	CMPQ BX, DX
	JLE  gblock
	MOVQ DX, BX                    // ragged end: overlap the final block
	JMP  gblock

gdone:
	VZEROUPPER
	RET

// func gather2Asm(dst *float64, n int, srcs *[]float64, w *float64, nt int)
//
// The two-output gather: dst[b·n+i] = Σ_t w[2t+b]·srcs[t][i] for b = 0, 1
// and i in [0, n), n ≥ 16, nt ≥ 1 — two sibling nodes whose taps read the
// same source runs. Blocks of 16 voxels live in Y0–Y3 (output 0) and Y4–Y7
// (output 1) across the whole tap loop: per tap, four source loads and two
// weight broadcasts feed eight FMAs. The final block starts at n−16 and may
// overlap the previous one.
TEXT ·gather2Asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ srcs+16(FP), SI
	MOVQ w+24(FP), R8
	MOVQ nt+32(FP), R10
	LEAQ (DI)(DX*8), CX            // output 1
	SUBQ $16, DX
	SHLQ $3, DX                    // byte offset of the final block
	XORQ BX, BX                    // byte offset of the current block

pblock:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9                    // &srcs[t]
	MOVQ R8, R11                   // &w[2t]
	MOVQ R10, R12                  // taps left

ptap:
	MOVQ (R9), R13
	VMOVUPD (R13)(BX*1), Y8
	VMOVUPD 32(R13)(BX*1), Y9
	VMOVUPD 64(R13)(BX*1), Y10
	VMOVUPD 96(R13)(BX*1), Y11
	VBROADCASTSD (R11), Y12        // w[2t]
	VBROADCASTSD 8(R11), Y13       // w[2t+1]
	VFMADD231PD Y8, Y12, Y0
	VFMADD231PD Y9, Y12, Y1
	VFMADD231PD Y10, Y12, Y2
	VFMADD231PD Y11, Y12, Y3
	VFMADD231PD Y8, Y13, Y4
	VFMADD231PD Y9, Y13, Y5
	VFMADD231PD Y10, Y13, Y6
	VFMADD231PD Y11, Y13, Y7
	ADDQ $24, R9
	ADDQ $16, R11
	DECQ R12
	JNZ  ptap

	LEAQ (DI)(BX*1), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	LEAQ (CX)(BX*1), R13
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, 64(R13)
	VMOVUPD Y7, 96(R13)
	CMPQ BX, DX
	JEQ  pdone
	ADDQ $128, BX
	CMPQ BX, DX
	JLE  pblock
	MOVQ DX, BX                    // ragged end: overlap the final block
	JMP  pblock

pdone:
	VZEROUPPER
	RET

// func dotAsm(dst, a *float64, n int, b *float64, off *int, nt int)
//
// dst[t] = Σ_i a[i]·b[off[t]+i] for i in [0, n), n ≥ 16, nt ≥ 1, in dotGo's
// order. Taps run three at a time, so each load of a feeds three taps: over
// the first n&^15 elements tap j of a block accumulates in Y(4j)–Y(4j+3),
// element i in lane i mod 16 of its four registers, and reduces as
// v = (L0+L1) + (L2+L3), then (v0+v2) + (v1+v3); the remaining elements
// continue each tap's sum as a scalar FMA chain. A final block of one or
// two taps repeats its last tap in the spare slots, which store the same
// value to the same dst element.
#define DOTREDUCE(L0, L1, L2, L3, XA, XB) \
	VADDPD L1, L0, L0; \
	VADDPD L3, L2, L2; \
	VADDPD L2, L0, L0; \
	VEXTRACTF128 $1, L0, XB; \
	VADDPD XB, XA, XA; \
	VPERMILPD $1, XA, XB; \
	VADDSD XB, XA, XA

// The block's second and third taps, min(t+1, last) in BX and
// min(t+2, last) in R12.
#define DOTTAPS \
	LEAQ 1(R8), BX; \
	CMPQ BX, R10; \
	CMOVQGT R10, BX; \
	LEAQ 2(R8), R12; \
	CMPQ R12, R10; \
	CMOVQGT R10, R12

TEXT ·dotAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ off+32(FP), R9
	MOVQ nt+40(FP), R10
	LEAQ (SI)(CX*8), R14           // &a[n]
	ANDQ $-16, CX
	LEAQ (SI)(CX*8), CX            // &a[n&^15]
	DECQ R10                       // the last tap
	XORQ R8, R8                    // the block's first tap

dtap:
	DOTTAPS
	MOVQ (R9)(R8*8), R11
	LEAQ (DX)(R11*8), R11          // b + off[t]
	MOVQ (R9)(BX*8), R13
	LEAQ (DX)(R13*8), R13          // b + off[second]
	MOVQ (R9)(R12*8), R12
	LEAQ (DX)(R12*8), R12          // b + off[third]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, AX                    // &a[i]

dblock:
	VMOVUPD (AX), Y12
	VMOVUPD 32(AX), Y13
	VMOVUPD 64(AX), Y14
	VMOVUPD 96(AX), Y15
	VFMADD231PD (R11), Y12, Y0
	VFMADD231PD 32(R11), Y13, Y1
	VFMADD231PD 64(R11), Y14, Y2
	VFMADD231PD 96(R11), Y15, Y3
	VFMADD231PD (R13), Y12, Y4
	VFMADD231PD 32(R13), Y13, Y5
	VFMADD231PD 64(R13), Y14, Y6
	VFMADD231PD 96(R13), Y15, Y7
	VFMADD231PD (R12), Y12, Y8
	VFMADD231PD 32(R12), Y13, Y9
	VFMADD231PD 64(R12), Y14, Y10
	VFMADD231PD 96(R12), Y15, Y11
	ADDQ $128, AX
	ADDQ $128, R11
	ADDQ $128, R13
	ADDQ $128, R12
	CMPQ AX, CX
	JLT  dblock

	DOTREDUCE(Y0, Y1, Y2, Y3, X0, X1)
	DOTREDUCE(Y4, Y5, Y6, Y7, X4, X5)
	DOTREDUCE(Y8, Y9, Y10, Y11, X8, X9)
	CMPQ AX, R14
	JGE  dstore

dtail:
	VMOVSD (AX), X12
	VFMADD231SD (R11), X12, X0
	VFMADD231SD (R13), X12, X4
	VFMADD231SD (R12), X12, X8
	ADDQ $8, AX
	ADDQ $8, R11
	ADDQ $8, R13
	ADDQ $8, R12
	CMPQ AX, R14
	JLT  dtail

dstore:
	DOTTAPS
	VMOVSD X0, (DI)(R8*8)
	VMOVSD X4, (DI)(BX*8)
	VMOVSD X8, (DI)(R12*8)
	ADDQ $3, R8
	CMPQ R8, R10
	JLE  dtap
	VZEROUPPER
	RET
