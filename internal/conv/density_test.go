package conv

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

// sparsify zeroes a random subset of kernel taps, targeting the given
// density (at least one tap kept nonzero unless density is 0).
func sparsify(r *rand.Rand, ker *tensor.Tensor, density float64) {
	n := len(ker.Data)
	keep := int(density * float64(n))
	if keep < 1 && density > 0 {
		keep = 1
	}
	perm := r.Perm(n)
	for _, i := range perm[keep:] {
		ker.Data[i] = 0
	}
}

func TestTapListOrderAndCount(t *testing.T) {
	ker := tensor.FromSlice(tensor.S3(2, 2, 1), 1, 0, 0, 4)
	tl := NewTapList(ker)
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	if tl.KernelShape() != ker.S {
		t.Fatalf("KernelShape = %v, want %v", tl.KernelShape(), ker.S)
	}
	if Nnz(ker) != 2 {
		t.Fatalf("Nnz = %d, want 2", Nnz(ker))
	}
	if d := Density(ker); d != 0.5 {
		t.Fatalf("Density = %g, want 0.5", d)
	}
}

func TestDensityEmptyKernel(t *testing.T) {
	if d := Density(&tensor.Tensor{}); d != 1 {
		t.Fatalf("Density of empty kernel = %g, want 1", d)
	}
}

type densityGeom struct {
	img, ker *tensor.Tensor
	sp       tensor.Sparsity
}

// densityGeoms returns randomized geometry plus the exemplar shapes (5×5×1,
// 3×3×3) with rows long enough to reach the vector kernels.
func densityGeoms(rng *rand.Rand) []densityGeom {
	var geoms []densityGeom
	for trial := 0; trial < 12; trial++ {
		img, ker, sp := randGeom(rng)
		geoms = append(geoms, densityGeom{img, ker, sp})
	}
	for _, k := range []tensor.Shape{tensor.S3(5, 5, 1), tensor.Cube(3)} {
		for _, sp := range []tensor.Sparsity{tensor.Dense(), tensor.Uniform(2)} {
			in := tensor.S3(40, 13, 7)
			geoms = append(geoms, densityGeom{tensor.RandomUniform(rng, in, -1, 1), tensor.RandomUniform(rng, k, -1, 1), sp})
		}
	}
	return geoms
}

// fmaValid is the valid convolution with every kernel tap, zeros included,
// as one math.FMA chain per output voxel in the kernel's linear (z, y, x)
// order, the order a tap list fixes.
func fmaValid(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	os, ks := img.S.ValidConv(ker.S, sp), ker.S
	out := tensor.New(os)
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				var acc float64
				for c := 0; c < ks.Z; c++ {
					for b := 0; b < ks.Y; b++ {
						for a := 0; a < ks.X; a++ {
							acc = math.FMA(ker.At(a, b, c), img.At(
								x+sp.X*(ks.X-1-a),
								y+sp.Y*(ks.Y-1-b),
								z+sp.Z*(ks.Z-1-c)), acc)
						}
					}
				}
				out.Set(x, y, z, acc)
			}
		}
	}
	return out
}

// fmaFull is fmaValid over img zero-padded by s(k−1) on every side.
func fmaFull(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	h := img.S.FullConv(ker.S, sp).Sub(img.S)
	p := tensor.New(img.S.Add(h).Add(h))
	for z := 0; z < img.S.Z; z++ {
		for y := 0; y < img.S.Y; y++ {
			for x := 0; x < img.S.X; x++ {
				p.Set(x+h.X, y+h.Y, z+h.Z, img.At(x, y, z))
			}
		}
	}
	return fmaValid(p, ker, sp)
}

// TestSparseDirectMatchesDirectBitExact runs a Direct Transformer through
// all three phases at kernel density 1, 0.5 and 0. Skipping zero taps must
// leave every bit of forward and backward as evaluating all of them does
// (fma(0, x, acc) is acc), and the kernel gradient must equal the one-shot
// KernelGradDirect exactly.
func TestSparseDirectMatchesDirectBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for gi, g := range densityGeoms(rng) {
		for _, d := range []float64{1, 0.5, 0} {
			ker := g.ker.Clone()
			if d < 1 {
				sparsify(rng, ker, d)
			}
			bwd := tensor.RandomUniform(rng, g.img.S.ValidConv(ker.S, g.sp), -1, 1)
			tr := NewTransformer(g.img.S, ker.S, g.sp, Direct, false, nil)
			for _, ph := range []struct {
				name      string
				got, want *tensor.Tensor
			}{
				{"forward", tr.Forward(g.img, ker, nil), fmaValid(g.img, ker, g.sp)},
				{"backward", tr.Backward(bwd, ker, nil), fmaFull(bwd, ker.Reflect(), g.sp)},
				{"kernel grad", tr.KernelGrad(g.img, bwd), KernelGradDirect(g.img, bwd, ker.S, g.sp)},
			} {
				if !ph.got.Equal(ph.want) {
					t.Fatalf("geom %d density %g: %s differs from the all-taps evaluation (max |Δ| = %g)",
						gi, d, ph.name, ph.got.MaxAbsDiff(ph.want))
				}
			}
		}
	}
}

// TestTransformerSparseDirectParity runs a Direct Transformer through all
// three phases at kernel density 1, 0.5 and 0 against the naive references.
// The kernel gradient stays dense (sparse execution is a strategy, not a
// pruning mask: zero taps receive nonzero gradients), so its reference is
// the definition ⟨valid(x, δ_a), u⟩ at every tap a.
func TestTransformerSparseDirectParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for gi, g := range densityGeoms(rng) {
		for _, d := range []float64{1, 0.5, 0} {
			ker := g.ker.Clone()
			if d < 1 {
				sparsify(rng, ker, d)
			}
			bwd := tensor.RandomUniform(rng, g.img.S.ValidConv(ker.S, g.sp), -1, 1)
			grad := tensor.New(ker.S)
			for i := range grad.Data {
				basis := tensor.New(ker.S)
				basis.Data[i] = 1
				grad.Data[i] = NaiveValid(g.img, basis, g.sp).Dot(bwd)
			}
			tr := NewTransformer(g.img.S, ker.S, g.sp, Direct, false, nil)
			for _, ph := range []struct {
				name      string
				got, want *tensor.Tensor
			}{
				{"forward", tr.Forward(g.img, ker, nil), NaiveValid(g.img, ker, g.sp)},
				{"backward", tr.Backward(bwd, ker, nil), NaiveFull(bwd, ker.Reflect(), g.sp)},
				{"kernel grad", tr.KernelGrad(g.img, bwd), grad},
			} {
				if diff := ph.got.MaxAbsDiff(ph.want); diff > tol {
					t.Fatalf("geom %d density %g: %s differs from the reference by %g",
						gi, d, ph.name, diff)
				}
			}
		}
	}
}

func TestSparseDirectAllZeroKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	img := tensor.RandomUniform(rng, tensor.Cube(6), -1, 1)
	ker := tensor.New(tensor.Cube(3))
	if got := NewTapList(ker).Len(); got != 0 {
		t.Fatalf("all-zero kernel tap count = %d, want 0", got)
	}
	for _, out := range []*tensor.Tensor{ValidDirect(img, ker, tensor.Dense()), FullDirect(img, ker, tensor.Dense())} {
		for i, v := range out.Data {
			if v != 0 {
				t.Fatalf("output %d = %g, want 0 for all-zero kernel", i, v)
			}
		}
	}
}

// TestTransformerSparseDirectKernelInvalidate checks that a changed kernel
// zero pattern takes effect in a Direct transformer (a cached tap list
// would keep convolving with the old taps).
func TestTransformerSparseDirectKernelInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	img, ker, sp := randGeom(rng)
	sparsify(rng, ker, 0.5)
	tr := NewTransformer(img.S, ker.S, sp, Direct, false, nil)
	_ = tr.Forward(img, ker, nil)

	// New zero pattern: the cached tap list is stale until invalidated.
	for i := range ker.Data {
		ker.Data[i] = rng.Float64()*2 - 1
	}
	sparsify(rng, ker, 0.5)
	tr.InvalidateKernel()
	got := tr.Forward(img, ker, nil)
	want := ValidDirect(img, ker, sp)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("post-invalidate forward %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestSetMethodPrecSwitches exercises the compile-time method swap the
// execution planner relies on: one Transformer retargeted across
// (method, precision) cells keeps producing correct outputs in each.
func TestSetMethodPrecSwitches(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	img, ker, sp := randGeom(rng)
	sparsify(rng, ker, 0.5)
	want := ValidDirect(img, ker, sp)

	tr := NewTransformer(img.S, ker.S, sp, Direct, false, nil)
	cells := []struct {
		m Method
		p Precision
	}{
		{FFT, PrecF64}, {FFT, PrecF32}, {Direct, PrecF64},
	}
	for _, c := range cells {
		tr.SetMethodPrec(c.m, c.p)
		if tr.Method() != c.m {
			t.Fatalf("method = %v, want %v", tr.Method(), c.m)
		}
		got := tr.Forward(img, ker, nil)
		tol := c.p.Tol()
		if !c.m.IsFFT() {
			tol = 0 // Direct is bit-exact vs the dense reference
		}
		if d := got.MaxAbsDiff(want); d > tol {
			t.Fatalf("cell (%v, %v): forward differs from direct by %g (tol %g)", c.m, c.p, d, tol)
		}
	}
}
