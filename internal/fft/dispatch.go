package fft

import (
	"sync/atomic"

	"znn/internal/tensor"
)

// Vector kernel dispatch.
//
// The hot-path kernels of both precisions — the complex64 and complex128
// pointwise products and scale, and the float32 and float64 lane kernels —
// are reached through the variables below. At package init exactly one
// implementation set is installed:
//
//   - the AVX2 assembly kernels (kernels_amd64.s) when the build is
//     amd64 without the purego tag AND internal/cpu detects AVX2+FMA with
//     OS YMM support — KernelPath() reports "avx2";
//   - otherwise the portable Go kernels — KernelPath() reports "scalar" on
//     amd64 hosts that merely lack the features, and "purego" when the
//     build excluded the assembly (purego tag or non-amd64).
//
// After init the table is immutable.
var (
	mulInto64     = mulInto64Scalar
	mulAccInto64  = mulAccInto64Scalar
	scale64       = scale64Scalar
	mulInto128    = mulInto128Scalar
	mulAccInto128 = mulAccInto128Scalar
	scale128      = scale128Scalar

	// mulConj64 and mulConj128 compute dst (+)= a·conj(b) (MulConjSpecInto).
	mulConj64  = mulConjScalar[float32, complex64]
	mulConj128 = mulConjScalar[float64, complex128]

	// lane32 and lane64 are the lanes-wide kernel sets of the 3D passes,
	// line32 and line64 the single-line Go sets of the 1D plans. The 3D
	// passes run lanes wide on either kernel set: on the Go twins too, 8
	// lines in lockstep beat one line at a time.
	lane32, lane64 = portable[float32](lanes), portable[float64](lanes)
	line32, line64 = portable[float32](1), portable[float64](1)

	// vecActive mirrors "the AVX2 set is installed" for the dispatch
	// counter below without a string compare on hot paths.
	vecActive = false

	kernelPath = "scalar"
)

// kernelsFor returns precision F's lanes-wide kernel set when batched, else
// its single-line set.
func kernelsFor[F tensor.Real](batched bool) *laneKernels[F] {
	sets := [2]any{line64, lane64}
	if isR32[F]() {
		sets = [2]any{line32, lane32}
	}
	if batched {
		return sets[1].(*laneKernels[F])
	}
	return sets[0].(*laneKernels[F])
}

// vecKernelOps counts dispatches into the AVX2 kernel set at kernel-call
// granularity (one flat pointwise kernel over a whole spectrum, or one
// lane-batched line pass over a volume — not per element). CI's dispatch
// leg asserts it advances, proving the vector path actually ran on the
// host rather than silently falling back.
var vecKernelOps atomic.Int64

func countVec() {
	if vecActive {
		vecKernelOps.Add(1)
	}
}

// KernelPath reports which kernel set this process runs, for both
// precisions: "avx2", "scalar" (amd64 built with assembly but the CPU or
// OS lacks AVX2/FMA/YMM support), or "purego" (assembly excluded at build
// time).
func KernelPath() string { return kernelPath }

// KernelDispatches returns the number of kernel calls dispatched to the
// AVX2 set since process start (0 on the scalar and purego paths).
func KernelDispatches() int64 { return vecKernelOps.Load() }
