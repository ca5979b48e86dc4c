package conv

import (
	"math"
	"sync/atomic"

	"znn/internal/fft"
	"znn/internal/tensor"
)

// Counters accumulates the work performed by convolution edges, giving the
// empirical side of the Table II complexity comparison (experiment E2).
// A nil *Counters is valid and counts nothing, so instrumentation can stay
// in place on hot paths.
type Counters struct {
	FFTs        atomic.Int64 // number of forward 3D transforms
	InverseFFTs atomic.Int64 // number of inverse 3D transforms
	FFTFlops    atomic.Int64 // Σ over transforms of C·W·log2(N), W = (X/2+1)·Y·Z packed coefficients
	MulVolume   atomic.Int64 // coefficients of pointwise complex multiply-accumulate
	DirectFlops atomic.Int64 // multiply-add pairs of direct convolution
	F32FFTs     atomic.Int64 // forward + inverse transforms that ran in float32/complex64
}

// FFTConstant is the constant C in the paper's FFT cost model Cn³·log n³
// (the paper's Fig. 4 assumes C = 5).
const FFTConstant = 5

// fftFlops returns the modeled cost of one real-input 3D transform at shape
// m: the paper's C·N·log2(N) with the leading N replaced by the packed
// coefficient count (X/2+1)·Y·Z — the ~2× saving of exploiting real-input
// symmetry.
func fftFlops(m tensor.Shape) int64 {
	n := float64(m.Volume())
	if n <= 1 {
		return 0
	}
	return int64(FFTConstant * float64(fft.PackedVolume(m)) * math.Log2(n))
}

// addFFT counts one forward transform, or with inverse one inverse one.
func (c *Counters) addFFT(m tensor.Shape, f32, inverse bool) {
	if c == nil {
		return
	}
	if inverse {
		c.InverseFFTs.Add(1)
	} else {
		c.FFTs.Add(1)
	}
	if f32 {
		c.F32FFTs.Add(1)
	}
	c.FFTFlops.Add(fftFlops(m))
}

func (c *Counters) addMul(m tensor.Shape) {
	if c == nil {
		return
	}
	c.MulVolume.Add(int64(fft.PackedVolume(m)))
}

func (c *Counters) addDirect(flops int64) {
	if c == nil {
		return
	}
	c.DirectFlops.Add(flops)
}

// Snapshot is a plain-value copy of the counters, plus the process-global
// vector-kernel dispatch state (fft.KernelPath / fft.KernelDispatches):
// which FFT kernel set this process runs and how many kernel calls it has
// dispatched to the vector set. The dispatch fields describe the process,
// not one edge, but they belong in the same observability surface — an FFT
// count is only interpretable next to the instruction set that executed
// it.
type Snapshot struct {
	FFTs         int64
	InverseFFTs  int64
	FFTFlops     int64
	MulVolume    int64
	DirectFlops  int64
	F32FFTs      int64
	VecKernelOps int64  // process-wide dispatches into the vector kernel set
	KernelPath   string // "avx2", "scalar", or "purego" (process-wide)
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{KernelPath: fft.KernelPath(), VecKernelOps: fft.KernelDispatches()}
	}
	return Snapshot{
		FFTs:         c.FFTs.Load(),
		InverseFFTs:  c.InverseFFTs.Load(),
		FFTFlops:     c.FFTFlops.Load(),
		MulVolume:    c.MulVolume.Load(),
		DirectFlops:  c.DirectFlops.Load(),
		F32FFTs:      c.F32FFTs.Load(),
		VecKernelOps: fft.KernelDispatches(),
		KernelPath:   fft.KernelPath(),
	}
}

// Sub returns the difference of two snapshots (s − t), convenient for
// measuring a single phase.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		FFTs:         s.FFTs - t.FFTs,
		InverseFFTs:  s.InverseFFTs - t.InverseFFTs,
		FFTFlops:     s.FFTFlops - t.FFTFlops,
		MulVolume:    s.MulVolume - t.MulVolume,
		DirectFlops:  s.DirectFlops - t.DirectFlops,
		F32FFTs:      s.F32FFTs - t.F32FFTs,
		VecKernelOps: s.VecKernelOps - t.VecKernelOps,
		KernelPath:   s.KernelPath,
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.FFTs.Store(0)
	c.InverseFFTs.Store(0)
	c.FFTFlops.Store(0)
	c.MulVolume.Store(0)
	c.DirectFlops.Store(0)
	c.F32FFTs.Store(0)
}
