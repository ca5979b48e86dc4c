package fft

import "sync/atomic"

// Vector kernel dispatch.
//
// The complex64 hot-path kernels are reached through the function variables
// below. At package init exactly one implementation set is installed:
//
//   - the AVX2 assembly kernels (kernels64_amd64.s) when the build is
//     amd64 without the purego tag AND internal/cpu detects AVX2+FMA with
//     OS YMM support — KernelPath() reports "avx2";
//   - otherwise the portable scalar/lane Go kernels — KernelPath() reports
//     "scalar" on amd64 hosts that merely lack the features, and "purego"
//     when the build excluded the assembly (purego tag or non-amd64).
//
// After init the table is immutable.
var (
	mulInto64    = mulInto64Scalar
	mulAccInto64 = mulAccInto64Scalar
	scale64      = scale64Scalar

	bfLaneR2       = bfLaneR2Go
	bfLaneR3       = bfLaneR3Go
	bfLaneR4       = bfLaneR4Go
	bfLaneR5       = bfLaneR5Go
	r2cLaneCombine = r2cLaneCombineGo
	c2rLanePre     = c2rLanePreGo

	// laneBatch gates the lane-batched line passes of the 3D plans. The
	// SoA restructuring pays for itself through the 8-wide assembly
	// butterflies; without them the per-line scalar kernels keep the
	// cache-tiled blockLines path, so the gate follows the kernel set.
	laneBatch = false

	// vecActive mirrors "the AVX2 set is installed" for the dispatch
	// counter below without a string compare on hot paths.
	vecActive = false

	kernelPath = "scalar"
)

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

// KernelPath reports which complex64 kernel set this process runs:
// "avx2", "scalar" (amd64 built with assembly but the CPU or OS lacks
// AVX2/FMA/YMM support), or "purego" (assembly excluded at build time).
func KernelPath() string { return kernelPath }

// KernelDispatches returns the number of kernel calls dispatched to the
// AVX2 set since process start (0 on the scalar and purego paths).
func KernelDispatches() int64 { return vecKernelOps.Load() }
