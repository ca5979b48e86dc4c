package conv

import (
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

// TestSparseDirectMatchesDirectBitExact runs a Direct and a SparseDirect
// Transformer through all three phases at kernel density 1, 0.5 and 0, on
// randomized geometry and on the exemplar shapes (5×5×1, 3×3×3) with rows
// long enough to reach the vector kernels. Both run the one tap-list
// kernel, so parity is exact equality, not a tolerance.
func TestSparseDirectMatchesDirectBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	type geom struct {
		img, ker *tensor.Tensor
		sp       tensor.Sparsity
	}
	var geoms []geom
	for trial := 0; trial < 12; trial++ {
		img, ker, sp := randGeom(rng)
		geoms = append(geoms, geom{img, ker, sp})
	}
	for _, k := range []tensor.Shape{tensor.S3(5, 5, 1), tensor.Cube(3)} {
		for _, sp := range []tensor.Sparsity{tensor.Dense(), tensor.Uniform(2)} {
			in := tensor.S3(40, 13, 7)
			geoms = append(geoms, geom{tensor.RandomUniform(rng, in, -1, 1), tensor.RandomUniform(rng, k, -1, 1), sp})
		}
	}
	for gi, g := range geoms {
		for _, d := range []float64{1, 0.5, 0} {
			ker := g.ker.Clone()
			if d < 1 {
				sparsify(rng, ker, d)
			}
			bwd := tensor.RandomUniform(rng, g.img.S.ValidConv(ker.S, g.sp), -1, 1)
			sd := NewTransformer(g.img.S, ker.S, g.sp, SparseDirect, false, nil)
			dd := NewTransformer(g.img.S, ker.S, g.sp, Direct, false, nil)
			for _, ph := range []struct {
				name   string
				sd, dd *tensor.Tensor
			}{
				{"forward", sd.Forward(g.img, ker, nil), dd.Forward(g.img, ker, nil)},
				{"backward", sd.Backward(bwd, ker, nil), dd.Backward(bwd, ker, nil)},
				{"kernel grad", sd.KernelGrad(g.img, bwd), dd.KernelGrad(g.img, bwd)},
			} {
				if !ph.sd.Equal(ph.dd) {
					t.Fatalf("geom %d density %g: sparse-direct %s differs from direct (max |Δ| = %g)",
						gi, d, ph.name, ph.sd.MaxAbsDiff(ph.dd))
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

// TestTransformerSparseDirectParity runs the full Transformer surface —
// forward, backward, kernel gradient — with the SparseDirect method against
// the Direct method on randomized sparsified kernels. Forward and backward
// must be bit-identical; the kernel gradient stays dense in both (sparse
// execution is a strategy, not a pruning mask: zero taps can receive
// nonzero gradients).
func TestTransformerSparseDirectParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		img, ker, sp := randGeom(rng)
		sparsify(rng, ker, 0.4)
		bwd := tensor.RandomUniform(rng, img.S.ValidConv(ker.S, sp), -1, 1)

		sd := NewTransformer(img.S, ker.S, sp, SparseDirect, false, nil)
		dd := NewTransformer(img.S, ker.S, sp, Direct, false, nil)
		if sd.Method() != SparseDirect {
			t.Fatalf("method = %v, want sparse-direct", sd.Method())
		}

		fs := sd.Forward(img, ker, nil)
		fd := dd.Forward(img, ker, nil)
		for i := range fs.Data {
			if fs.Data[i] != fd.Data[i] {
				t.Fatalf("trial %d: forward %d = %g, direct %g", trial, i, fs.Data[i], fd.Data[i])
			}
		}

		bs := sd.Backward(bwd, ker, nil)
		bd := dd.Backward(bwd, ker, nil)
		for i := range bs.Data {
			if bs.Data[i] != bd.Data[i] {
				t.Fatalf("trial %d: backward %d = %g, direct %g", trial, i, bs.Data[i], bd.Data[i])
			}
		}

		gs := sd.KernelGrad(img, bwd)
		gd := KernelGradDirect(img, bwd, ker.S, sp)
		if d := gs.MaxAbsDiff(gd); d != 0 {
			t.Fatalf("trial %d: kernel grad differs from dense by %g", trial, d)
		}
	}
}

// TestTransformerSparseDirectKernelInvalidate checks that a changed kernel
// zero pattern takes effect (a cached tap list would keep convolving with
// the old taps).
func TestTransformerSparseDirectKernelInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	img, ker, sp := randGeom(rng)
	sparsify(rng, ker, 0.5)
	tr := NewTransformer(img.S, ker.S, sp, SparseDirect, false, nil)
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
		{FFT, PrecF64}, {SparseDirect, PrecF64}, {FFT, PrecF32}, {Direct, PrecF64},
	}
	for _, c := range cells {
		tr.SetMethodPrec(c.m, c.p)
		if tr.Method() != c.m {
			t.Fatalf("method = %v, want %v", tr.Method(), c.m)
		}
		got := tr.Forward(img, ker, nil)
		tol := c.p.Tol()
		if !c.m.IsFFT() {
			tol = 0 // spatial methods are bit-exact vs the dense reference
		}
		if d := got.MaxAbsDiff(want); d > tol {
			t.Fatalf("cell (%v, %v): forward differs from direct by %g (tol %g)", c.m, c.p, d, tol)
		}
	}
}
