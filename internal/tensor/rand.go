package tensor

import "math/rand"

// FillUniform fills t with samples drawn uniformly from [lo, hi) using rng.
// All stochastic initialization in the library goes through explicit
// *rand.Rand instances so experiments are reproducible.
func (t *Vol[T]) FillUniform(rng *rand.Rand, lo, hi float64) {
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = T(lo + span*rng.Float64())
	}
}

// RandomUniform allocates a float64 tensor filled with uniform samples.
func RandomUniform(rng *rand.Rand, s Shape, lo, hi float64) *Tensor {
	t := New(s)
	t.FillUniform(rng, lo, hi)
	return t
}

// RandomUniformOf allocates a tensor of element type T filled with uniform
// samples.
func RandomUniformOf[T Real](rng *rand.Rand, s Shape, lo, hi float64) *Vol[T] {
	t := NewOf[T](s)
	t.FillUniform(rng, lo, hi)
	return t
}

// RandomInts allocates a tensor of small random integer values in
// [-limit, limit]. Integer-valued tensors make floating-point summation
// exact, which several concurrency tests rely on to compare parallel and
// sequential reductions bit-for-bit.
func RandomInts(rng *rand.Rand, s Shape, limit int) *Tensor {
	t := New(s)
	for i := range t.Data {
		t.Data[i] = float64(rng.Intn(2*limit+1) - limit)
	}
	return t
}
