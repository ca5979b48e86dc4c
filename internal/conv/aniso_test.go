package conv

import (
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

// Anisotropic geometries: non-cubic images, kernels, and sparsities in all
// combinations, for every method and phase.
func TestAnisotropicTransformer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	geoms := []struct {
		in tensor.Shape
		k  tensor.Shape
		sp tensor.Sparsity
	}{
		{tensor.S3(9, 5, 3), tensor.S3(3, 2, 1), tensor.Dense()},
		{tensor.S3(12, 4, 7), tensor.S3(2, 1, 3), tensor.Sparsity{X: 2, Y: 1, Z: 1}},
		{tensor.S3(8, 8, 1), tensor.S3(3, 3, 1), tensor.Sparsity{X: 1, Y: 2, Z: 1}}, // 2D
		{tensor.S3(5, 5, 5), tensor.S3(1, 1, 1), tensor.Uniform(2)},                 // 1³ kernel
		{tensor.S3(15, 3, 3), tensor.S3(4, 1, 1), tensor.Sparsity{X: 3, Y: 1, Z: 1}},
	}
	for gi, g := range geoms {
		img := tensor.RandomUniform(rng, g.in, -1, 1)
		ker := tensor.RandomUniform(rng, g.k, -1, 1)
		bwd := tensor.RandomUniform(rng, g.in.ValidConv(g.k, g.sp), -1, 1)

		wantF := ValidDirect(img, ker, g.sp)
		wantB := FullDirect(bwd, ker.Reflect(), g.sp)
		wantG := KernelGradDirect(img, bwd, g.k, g.sp)

		for _, method := range []Method{Direct, FFT} {
			for _, memo := range []bool{false, true} {
				tr := NewTransformer(g.in, g.k, g.sp, method, memo, nil)
				if d := tr.Forward(img, ker, nil).MaxAbsDiff(wantF); d > 1e-9 {
					t.Errorf("geom %d %v memo=%v: forward differs %g", gi, method, memo, d)
				}
				if d := tr.Backward(bwd, ker, nil).MaxAbsDiff(wantB); d > 1e-9 {
					t.Errorf("geom %d %v memo=%v: backward differs %g", gi, method, memo, d)
				}
				if d := tr.KernelGrad(img, bwd).MaxAbsDiff(wantG); d > 1e-9 {
					t.Errorf("geom %d %v memo=%v: kernel grad differs %g", gi, method, memo, d)
				}
			}
		}
	}
}

// Kernel as large as the image: valid output is a single voxel.
func TestKernelEqualsImage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	img := tensor.RandomUniform(rng, tensor.Cube(4), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(4), -1, 1)
	want := img.Dot(ker.Reflect())
	for _, method := range []Method{Direct, FFT} {
		tr := NewTransformer(img.S, ker.S, tensor.Dense(), method, false, nil)
		out := tr.Forward(img, ker, nil)
		if out.S != tensor.Cube(1) {
			t.Fatalf("%v: output shape %v", method, out.S)
		}
		if d := out.Data[0] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%v: single-voxel output %g, want %g", method, out.Data[0], want)
		}
	}
}

// Concurrent transformers sharing one SpectrumCache must be safe and
// correct (this is exactly what the engine does for a layer's edges); the
// direct edges share the kernels' scratch buffers and tap-list pool.
func TestConcurrentEdgesOneCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := tensor.RandomUniform(rng, tensor.S3(40, 10, 10), -1, 1)
	bwd := tensor.RandomUniform(rng, tensor.S3(38, 8, 8), -1, 1)
	var sc SpectrumCache
	sc.Reset(img)
	const edges = 8
	kers := make([]*tensor.Tensor, edges)
	wants := make([]*tensor.Tensor, edges)
	for i := range kers {
		kers[i] = tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
		wants[i] = ValidDirect(img, kers[i], tensor.Dense())
	}
	for _, method := range []Method{FFT, Direct} {
		done := make(chan error, edges)
		for i := 0; i < edges; i++ {
			go func(i int) {
				tr := NewTransformer(img.S, tensor.Cube(3), tensor.Dense(), method, false, nil)
				out := tr.Forward(img, kers[i], &sc)
				if method == Direct {
					tr.Backward(bwd, kers[i], nil)
					tr.KernelGrad(img, bwd)
				}
				if d := out.MaxAbsDiff(wants[i]); d > 1e-9 {
					done <- errMismatch{d}
					return
				}
				done <- nil
			}(i)
		}
		for i := 0; i < edges; i++ {
			if err := <-done; err != nil {
				t.Fatalf("%v: %v", method, err)
			}
		}
	}
}

type errMismatch struct{ d float64 }

func (e errMismatch) Error() string { return "concurrent edge result mismatch" }
