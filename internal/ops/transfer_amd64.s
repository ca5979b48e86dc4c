//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA bodies of Logistic.Forward and ReLU.Forward (transfer.go holds
// the Go twins). Each lane computes exactly what the twin computes for its
// voxel, so the outputs match bit for bit. NOSPLIT leaf functions;
// VZEROUPPER on exit avoids AVX→SSE transition stalls in the surrounding Go
// code.

// Each constant fills one 32-byte row, one copy per lane, so that it can be
// a YMM memory operand. The exp constants are those of Go's
// math/exp_amd64.s.
#define ROW(off, v) DATA transferc<>+(off)(SB)/8, v; DATA transferc<>+(off+8)(SB)/8, v; DATA transferc<>+(off+16)(SB)/8, v; DATA transferc<>+(off+24)(SB)/8, v

ROW(0, $1.4426950408889634073599246810018920)         // LOG2E
ROW(32, $0.69314718055966295651160180568695068359375) // LN2U
ROW(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
ROW(96, $0.0625)
ROW(128, $2.4801587301587301587e-5)
ROW(160, $1.9841269841269841270e-4)
ROW(192, $1.3888888888888888889e-3)
ROW(224, $8.3333333333333333333e-3)
ROW(256, $4.1666666666666666667e-2)
ROW(288, $1.6666666666666666667e-1)
ROW(320, $0.5)
ROW(352, $1.0)
ROW(384, $2.0)
ROW(416, $0x8000000000000000) // sign bit
ROW(448, $700.0)              // the vector body's range
ROW(480, $1023)               // exponent bias, as an integer
GLOBL transferc<>(SB), RODATA, $512

#define C(off) transferc<>+(off)(SB)

// func logisticAsm(dst, src *float64, n int, bias float64) int
//
// dst[i] = 1/(1+exp(−(src[i]+bias))) for i in [0, n), n a multiple of 4, in
// blocks of 4. exp is math.Exp's amd64 FMA path (archExp with useFMA) run
// on four lanes: the same constants, rounding and operation order. A block
// with a lane whose |src[i]+bias| exceeds 700, or is NaN, stops the loop:
// the return value is the number of voxels done, and the caller finishes
// that block with the Go formula. Inside ±700 the exponent k+1023 stays in
// (0, 0x7FF), so archExp's non-finite, overflow and denormal branches are
// never taken there.
TEXT ·logisticAsm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD bias+24(FP), Y15
	VMOVUPD      C(416), Y14        // sign bit
	VMOVUPD      C(352), Y13        // 1.0
	XORQ         AX, AX

lloop:
	CMPQ      AX, CX
	JGE       ldone
	VADDPD    (SI)(AX*8), Y15, Y0 // t = x + bias
	VANDNPD   Y0, Y14, Y2         // |t|
	VCMPPD    $6, C(448), Y2, Y2  // !(|t| ≤ 700): out of range or NaN
	VMOVMSKPD Y2, BX
	TESTL     BX, BX
	JNZ       ldone
	VXORPD    Y14, Y0, Y0         // x = −t

	// archExp's avxfma path, lane for lane.
	VMULPD       C(0), Y0, Y1
	VCVTPD2DQY   Y1, X3           // k, rounded to nearest like CVTSD2SL
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD C(32), Y1, Y0
	VFNMADD231PD C(64), Y1, Y0
	VMULPD       C(96), Y0, Y0
	VMOVUPD      C(128), Y1
	VFMADD213PD  C(160), Y0, Y1
	VFMADD213PD  C(192), Y0, Y1
	VFMADD213PD  C(224), Y0, Y1
	VFMADD213PD  C(256), Y0, Y1
	VFMADD213PD  C(288), Y0, Y1
	VFMADD213PD  C(320), Y0, Y1
	VFMADD213PD  C(352), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       C(384), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       C(384), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       C(384), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       C(384), Y0, Y1
	VFMADD213PD  C(352), Y1, Y0

	// × 2^k, 2^k built as (k+1023)<<52.
	VPMOVSXDQ X3, Y3
	VPADDQ    C(480), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VADDPD  Y13, Y0, Y0 // 1 + exp(−t)
	VDIVPD  Y0, Y13, Y0 // 1 / (1 + exp(−t))
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     lloop

ldone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func reluAsm(dst, src *float64, n int, bias float64)
//
// dst[i] = max(src[i]+bias, +0) for i in [0, n), n a positive multiple of
// 4. VMAXPD returns its second operand, +0, unless the first is greater,
// so NaN and −0 map to +0 like ReLU.Apply's x > 0 test.
TEXT ·reluAsm(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD bias+24(FP), Y15
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX

rloop:
	VADDPD  (SI)(AX*8), Y15, Y0
	VMAXPD  Y14, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     rloop
	VZEROUPPER
	RET
