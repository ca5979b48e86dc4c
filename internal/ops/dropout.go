package ops

import (
	"fmt"
	"math/rand"

	"znn/internal/tensor"
)

// Dropout implements the dropout extension shipped with ZNN (Section X;
// Srivastava et al. 2014). During training each voxel is zeroed with
// probability 1−keep and survivors are scaled by 1/keep ("inverted
// dropout"), so inference needs no rescaling. The mask drawn in the
// forward pass is reused by the Jacobian.
type Dropout struct {
	Keep float64 // probability a voxel survives, in (0, 1]
	rng  *rand.Rand
	mask []float64
}

// NewDropout returns a dropout op with the given keep probability and seed.
func NewDropout(keep float64, seed int64) *Dropout {
	if !(keep > 0 && keep <= 1) { // rejects NaN too
		panic(fmt.Sprintf("ops: dropout keep probability %v outside (0,1]", keep))
	}
	return &Dropout{Keep: keep, rng: rand.New(rand.NewSource(seed))}
}

// Forward draws a fresh mask and applies it: out = in ⊙ mask/keep.
func (d *Dropout) Forward(in *tensor.Tensor) *tensor.Tensor {
	n := in.S.Volume()
	if cap(d.mask) < n {
		d.mask = make([]float64, n)
	}
	d.mask = d.mask[:n]
	inv := 1 / d.Keep
	out := tensor.New(in.S)
	for i, v := range in.Data {
		if d.rng.Float64() < d.Keep {
			d.mask[i] = inv
		} else {
			d.mask[i] = 0
		}
		out.Data[i] = v * d.mask[i]
	}
	return out
}

// Backward applies the Jacobian of the most recent Forward: the same mask.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(d.mask) != grad.S.Volume() {
		panic(fmt.Sprintf("ops: dropout backward before forward, or shape changed (mask %d, grad %v)",
			len(d.mask), grad.S))
	}
	out := tensor.New(grad.S)
	for i, g := range grad.Data {
		out.Data[i] = g * d.mask[i]
	}
	return out
}

// InferenceForward applies dropout at test time, which is the identity
// under inverted dropout.
func (d *Dropout) InferenceForward(in *tensor.Tensor) *tensor.Tensor {
	return in.Clone()
}
