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

// func dotAsm(dst, a *float64, n int, b *float64, off *int, nt int)
//
// dst[t] = Σ_i a[i]·b[off[t]+i] for i in [0, n), n a positive multiple of
// 16, nt ≥ 1. Element i accumulates into lane i mod 16 of Y0–Y3; the lanes
// reduce as v = (Y0+Y1) + (Y2+Y3), then (v0+v2) + (v1+v3).
TEXT ·dotAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ off+32(FP), R9
	MOVQ nt+40(FP), R10
	SHLQ $3, CX                    // n in bytes

dtap:
	MOVQ (R9), R12
	LEAQ (DX)(R12*8), R13          // b + off[t]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dblock:
	VMOVUPD (SI)(AX*1), Y4
	VMOVUPD 32(SI)(AX*1), Y5
	VMOVUPD 64(SI)(AX*1), Y6
	VMOVUPD 96(SI)(AX*1), Y7
	VFMADD231PD (R13)(AX*1), Y4, Y0
	VFMADD231PD 32(R13)(AX*1), Y5, Y1
	VFMADD231PD 64(R13)(AX*1), Y6, Y2
	VFMADD231PD 96(R13)(AX*1), Y7, Y3
	ADDQ $128, AX
	CMPQ AX, CX
	JLT  dblock

	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0              // v
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0              // (v0+v2, v1+v3)
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0              // (v0+v2) + (v1+v3)
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, R9
	DECQ R10
	JNZ  dtap
	VZEROUPPER
	RET
