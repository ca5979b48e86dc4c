package conv

import "fmt"

// Precision selects the numeric element type of the spectral pipeline
// (Method FFT); both precisions stay live and A/B-benchmarkable. With
// PrecF32 the transformer converts images to float32 at the transform
// boundary, runs the r2c/c2r transforms and every pointwise spectral
// operation in complex64, and converts back on store. Spectra are half the
// bytes of the PrecF64 path at identical coefficient counts, which on the
// bandwidth-bound Y/Z passes and pointwise products is the dominant cost.
// Direct convolution is unaffected.
type Precision uint8

const (
	// PrecF64 computes spectra in float64/complex128 — the default,
	// bit-compatible with the pre-precision pipeline.
	PrecF64 Precision = iota
	// PrecF32 computes packed spectra in float32/complex64: half the
	// spectrum memory and bandwidth, float32 accuracy (parity tests use
	// tolerances scaled by Tol).
	PrecF32
)

func (p Precision) String() string {
	switch p {
	case PrecF64:
		return "f64"
	case PrecF32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Tol returns a parity-test tolerance appropriate for the precision: the
// float64 pipeline agrees with direct convolution to ~1e-9; the float32
// pipeline accumulates O(eps·log N) relative error through the transform
// round trip.
func (p Precision) Tol() float64 {
	if p == PrecF32 {
		return 2e-3
	}
	return 1e-9
}
