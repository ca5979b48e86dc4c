package conv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"znn/internal/tensor"
)

const tol = 1e-9

// randGeom draws a random (image, kernel, sparsity) triple with the dilated
// kernel guaranteed to fit inside the image.
func randGeom(r *rand.Rand) (img, ker *tensor.Tensor, sp tensor.Sparsity) {
	k := tensor.Shape{X: 1 + r.Intn(3), Y: 1 + r.Intn(3), Z: 1 + r.Intn(3)}
	sp = tensor.Sparsity{X: 1 + r.Intn(2), Y: 1 + r.Intn(2), Z: 1 + r.Intn(2)}
	in := tensor.Shape{
		X: sp.X*(k.X-1) + 1 + r.Intn(6),
		Y: sp.Y*(k.Y-1) + 1 + r.Intn(6),
		Z: sp.Z*(k.Z-1) + 1 + r.Intn(6),
	}
	img = tensor.RandomUniform(r, in, -1, 1)
	ker = tensor.RandomUniform(r, k, -1, 1)
	return img, ker, sp
}

func TestValidDirectKnownValues(t *testing.T) {
	// 1D-style: x = [1,2,3,4], w = [1,10]; true convolution valid:
	// y[i] = x[i+1]*w[0] + x[i]*w[1] = [12, 23, 34] with w=[w0,w1]=[1,10]:
	// y[i] = x[i+1]*1 + x[i]*10.
	x := tensor.FromSlice(tensor.S3(4, 1, 1), 1, 2, 3, 4)
	w := tensor.FromSlice(tensor.S3(2, 1, 1), 1, 10)
	got := ValidDirect(x, w, tensor.Dense())
	want := tensor.FromSlice(tensor.S3(3, 1, 1), 12, 23, 34)
	if !got.ApproxEqual(want, tol) {
		t.Errorf("ValidDirect = %v, want %v", got.Data, want.Data)
	}
}

func TestFullDirectKnownValues(t *testing.T) {
	// Full: y[m] = Σ x[m−a]w[a] → [1*1, 2+10, 3+20, 4+30, 40].
	x := tensor.FromSlice(tensor.S3(4, 1, 1), 1, 2, 3, 4)
	w := tensor.FromSlice(tensor.S3(2, 1, 1), 1, 10)
	got := FullDirect(x, w, tensor.Dense())
	want := tensor.FromSlice(tensor.S3(5, 1, 1), 1, 12, 23, 34, 40)
	if !got.ApproxEqual(want, tol) {
		t.Errorf("FullDirect = %v, want %v", got.Data, want.Data)
	}
}

func TestSparseValidKnownValues(t *testing.T) {
	// Sparsity 2, k=2: y[i] = x[i+2]·w0 + x[i]·w1, size 5−2 = 3.
	x := tensor.FromSlice(tensor.S3(5, 1, 1), 1, 2, 3, 4, 5)
	w := tensor.FromSlice(tensor.S3(2, 1, 1), 1, 10)
	got := ValidDirect(x, w, tensor.Sparsity{X: 2, Y: 1, Z: 1})
	want := tensor.FromSlice(tensor.S3(3, 1, 1), 13, 24, 35)
	if !got.ApproxEqual(want, tol) {
		t.Errorf("sparse ValidDirect = %v, want %v", got.Data, want.Data)
	}
}

func TestIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := tensor.RandomUniform(rng, tensor.Cube(6), -1, 1)
	one := tensor.FromSlice(tensor.S3(1, 1, 1), 1)
	if got := ValidDirect(img, one, tensor.Dense()); !got.ApproxEqual(img, tol) {
		t.Error("valid convolution with identity kernel is not identity")
	}
	if got := FullDirect(img, one, tensor.Dense()); !got.ApproxEqual(img, tol) {
		t.Error("full convolution with identity kernel is not identity")
	}
	if got := ValidFFT(img, one, tensor.Dense()); !got.ApproxEqual(img, 1e-10) {
		t.Error("FFT valid convolution with identity kernel is not identity")
	}
}

func TestDirectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		img, ker, sp := randGeom(rng)
		if d := ValidDirect(img, ker, sp).MaxAbsDiff(NaiveValid(img, ker, sp)); d > tol {
			t.Fatalf("trial %d: ValidDirect differs from naive by %g", trial, d)
		}
		if d := FullDirect(img, ker, sp).MaxAbsDiff(NaiveFull(img, ker, sp)); d > tol {
			t.Fatalf("trial %d: FullDirect differs from naive by %g", trial, d)
		}
	}
}

func TestFFTMatchesDirectValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img, ker, sp := randGeom(r)
		d := ValidFFT(img, ker, sp).MaxAbsDiff(ValidDirect(img, ker, sp))
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFFTMatchesDirectFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img, ker, sp := randGeom(r)
		d := FullFFT(img, ker, sp).MaxAbsDiff(FullDirect(img, ker, sp))
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestConvolutionIsCommutativeInFull(t *testing.T) {
	// Full convolution is symmetric in its operands.
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandomUniform(rng, tensor.S3(4, 3, 2), -1, 1)
	b := tensor.RandomUniform(rng, tensor.S3(2, 3, 4), -1, 1)
	ab := FullDirect(a, b, tensor.Dense())
	ba := FullDirect(b, a, tensor.Dense())
	if d := ab.MaxAbsDiff(ba); d > tol {
		t.Errorf("full convolution not commutative: %g", d)
	}
}

func TestLinearityInKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	img := tensor.RandomUniform(rng, tensor.Cube(7), -1, 1)
	k1 := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	k2 := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	ksum := k1.Clone()
	ksum.Add(k2)
	lhs := ValidDirect(img, ksum, tensor.Dense())
	rhs := ValidDirect(img, k1, tensor.Dense())
	rhs.Add(ValidDirect(img, k2, tensor.Dense()))
	if d := lhs.MaxAbsDiff(rhs); d > tol {
		t.Errorf("convolution not linear in kernel: %g", d)
	}
}

// The adjoint identity that makes backprop correct:
// ⟨valid(x,w), u⟩ == ⟨x, full(u, reflect(w))⟩ for all u.
func TestBackwardIsAdjointOfForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img, ker, sp := randGeom(r)
		u := tensor.RandomUniform(r, img.S.ValidConv(ker.S, sp), -1, 1)
		lhs := ValidDirect(img, ker, sp).Dot(u)
		rhs := img.Dot(FullDirect(u, ker.Reflect(), sp))
		d := lhs - rhs
		if d < 0 {
			d = -d
		}
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// The kernel-gradient identity: d/dw ⟨valid(x,w), u⟩ == KernelGrad(x, u),
// verified against the definition via linearity: grad[a] must equal
// ⟨valid(x, δ_a), u⟩ for every basis kernel δ_a.
func TestKernelGradMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		img, ker, sp := randGeom(rng)
		u := tensor.RandomUniform(rng, img.S.ValidConv(ker.S, sp), -1, 1)
		g := KernelGradDirect(img, u, ker.S, sp)
		for i := range ker.Data {
			basis := tensor.New(ker.S)
			basis.Data[i] = 1
			want := ValidDirect(img, basis, sp).Dot(u)
			if d := g.Data[i] - want; d > tol || d < -tol {
				t.Fatalf("trial %d: kernel grad[%d] = %g, want %g", trial, i, g.Data[i], want)
			}
		}
	}
}

func TestTransformerForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		img, ker, sp := randGeom(rng)
		for _, method := range []Method{Direct, FFT} {
			tr := NewTransformer(img.S, ker.S, sp, method, false, nil)
			got := tr.Forward(img, ker, nil)
			want := ValidDirect(img, ker, sp)
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("trial %d method %v: forward differs by %g", trial, method, d)
			}
		}
	}
}

func TestTransformerBackwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		img, ker, sp := randGeom(rng)
		bwd := tensor.RandomUniform(rng, img.S.ValidConv(ker.S, sp), -1, 1)
		want := FullDirect(bwd, ker.Reflect(), sp)
		for _, method := range []Method{Direct, FFT} {
			tr := NewTransformer(img.S, ker.S, sp, method, false, nil)
			got := tr.Backward(bwd, ker, nil)
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("trial %d method %v: backward differs by %g", trial, method, d)
			}
		}
	}
}

func TestTransformerKernelGradMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		img, ker, sp := randGeom(rng)
		bwd := tensor.RandomUniform(rng, img.S.ValidConv(ker.S, sp), -1, 1)
		want := KernelGradDirect(img, bwd, ker.S, sp)
		for _, memo := range []bool{false, true} {
			tr := NewTransformer(img.S, ker.S, sp, FFT, memo, nil)
			if memo {
				// Populate the memo slots the way a round would.
				tr.Forward(img, ker, nil)
				tr.Backward(bwd, ker, nil)
				if !tr.HasMemoizedSpectra() {
					t.Fatal("memo slots not populated after forward+backward")
				}
			}
			got := tr.KernelGrad(img, bwd)
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("trial %d memo=%v: kernel grad differs by %g", trial, memo, d)
			}
			if memo && tr.HasMemoizedSpectra() {
				t.Error("memo slots not consumed by KernelGrad")
			}
		}
	}
}

func TestTransformerMemoizationCountsFFTs(t *testing.T) {
	// With memoization: fwd = img FFT + kernel FFT + 1 inverse;
	// bwd = grad FFT + 1 inverse (kernel spectrum reused);
	// update = 1 inverse only (both spectra memoized).
	rng := rand.New(rand.NewSource(12))
	img := tensor.RandomUniform(rng, tensor.Cube(8), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	bwd := tensor.RandomUniform(rng, tensor.Cube(6), -1, 1)
	var c Counters
	tr := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, true, &c)

	tr.Forward(img, ker, nil)
	s1 := c.Snapshot()
	if s1.FFTs != 2 || s1.InverseFFTs != 1 {
		t.Errorf("forward: %d FFTs %d inverses, want 2 and 1", s1.FFTs, s1.InverseFFTs)
	}

	tr.Backward(bwd, ker, nil)
	s2 := c.Snapshot().Sub(s1)
	if s2.FFTs != 1 || s2.InverseFFTs != 1 {
		t.Errorf("backward: %d FFTs %d inverses, want 1 and 1 (kernel reused)", s2.FFTs, s2.InverseFFTs)
	}

	tr.KernelGrad(img, bwd)
	s3 := c.Snapshot().Sub(s2.addBack(s1))
	if s3.FFTs != 0 || s3.InverseFFTs != 1 {
		t.Errorf("update: %d FFTs %d inverses, want 0 and 1 (both spectra memoized)", s3.FFTs, s3.InverseFFTs)
	}

	// Without memoization the update must recompute both forward FFTs.
	var c2 Counters
	tr2 := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, false, &c2)
	tr2.Forward(img, ker, nil)
	tr2.Backward(bwd, ker, nil)
	before := c2.Snapshot()
	tr2.KernelGrad(img, bwd)
	d := c2.Snapshot().Sub(before)
	if d.FFTs != 2 || d.InverseFFTs != 1 {
		t.Errorf("unmemoized update: %d FFTs %d inverses, want 2 and 1", d.FFTs, d.InverseFFTs)
	}
}

// addBack restores a snapshot offset for sequential diffing in the test
// above.
func (s Snapshot) addBack(t Snapshot) Snapshot {
	return Snapshot{
		FFTs:        s.FFTs + t.FFTs,
		InverseFFTs: s.InverseFFTs + t.InverseFFTs,
		FFTFlops:    s.FFTFlops + t.FFTFlops,
		MulVolume:   s.MulVolume + t.MulVolume,
		DirectFlops: s.DirectFlops + t.DirectFlops,
	}
}

func TestKernelInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	img := tensor.RandomUniform(rng, tensor.Cube(6), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	tr := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, false, nil)
	out1 := tr.Forward(img, ker, nil)

	// Changing the kernel without invalidation returns stale results.
	ker2 := ker.Clone()
	ker2.Scale(2)
	stale := tr.Forward(img, ker2, nil)
	if stale.MaxAbsDiff(out1) > tol {
		t.Error("kernel spectrum was not cached (expected stale result)")
	}
	// After invalidation the new kernel takes effect.
	tr.InvalidateKernel()
	fresh := tr.Forward(img, ker2, nil)
	want := out1.Clone()
	want.Scale(2)
	if d := fresh.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("invalidated forward differs by %g", d)
	}
}

func TestSpectrumCacheSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	img := tensor.RandomUniform(rng, tensor.Cube(8), -1, 1)
	var sc SpectrumCache
	sc.Reset(img)
	var c Counters
	m := transformShape(img.S, tensor.Cube(3), tensor.Dense())
	a := sc.Get(m, PrecF64, &c)
	b := sc.Get(m, PrecF64, &c)
	if &a.C128[0] != &b.C128[0] {
		t.Error("SpectrumCache.Get returned distinct buffers for same shape")
	}
	if c.Snapshot().FFTs != 1 {
		t.Errorf("FFT count = %d, want 1 (cached)", c.Snapshot().FFTs)
	}
	sc.Reset(img)
	_ = sc.Get(m, PrecF64, &c)
	if c.Snapshot().FFTs != 2 {
		t.Errorf("FFT count after Reset = %d, want 2", c.Snapshot().FFTs)
	}
}

func TestSpectrumCacheGetBeforeResetPanics(t *testing.T) {
	var sc SpectrumCache
	defer func() {
		if recover() == nil {
			t.Error("Get before Reset did not panic")
		}
	}()
	sc.Get(tensor.Cube(4), PrecF64, nil)
}

func TestTransformerForwardUsesSharedSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	img := tensor.RandomUniform(rng, tensor.Cube(8), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	var c Counters
	tr := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, false, &c)
	var sc SpectrumCache
	sc.Reset(img)
	want := ValidDirect(img, ker, tensor.Dense())
	got := tr.Forward(img, ker, &sc)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("shared-spectrum forward differs by %g", d)
	}
	// Second edge with the same input: image FFT must not be recomputed.
	tr2 := NewTransformer(img.S, ker.S, tensor.Dense(), FFT, false, &c)
	before := c.Snapshot().FFTs
	tr2.Forward(img, ker, &sc)
	after := c.Snapshot().FFTs
	if after-before != 1 { // only the kernel FFT
		t.Errorf("second edge performed %d FFTs, want 1 (shared image spectrum)", after-before)
	}
}

func TestShapeValidationPanics(t *testing.T) {
	tr := NewTransformer(tensor.Cube(6), tensor.Cube(3), tensor.Dense(), Direct, false, nil)
	cases := map[string]func(){
		"fwd wrong img": func() { tr.Forward(tensor.New(tensor.Cube(5)), tensor.New(tensor.Cube(3)), nil) },
		"fwd wrong ker": func() { tr.Forward(tensor.New(tensor.Cube(6)), tensor.New(tensor.Cube(2)), nil) },
		"bwd wrong":     func() { tr.Backward(tensor.New(tensor.Cube(5)), tensor.New(tensor.Cube(3)), nil) },
		"grad wrong":    func() { tr.KernelGrad(tensor.New(tensor.Cube(6)), tensor.New(tensor.Cube(5))) },
		"kernel too big": func() {
			NewTransformer(tensor.Cube(2), tensor.Cube(3), tensor.Dense(), Direct, false, nil)
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTwoDImagesAsDegenerateThirdDim(t *testing.T) {
	// 2D ConvNets are 3D with Z = 1 (paper Section VIII); the conv engines
	// must handle them exactly.
	rng := rand.New(rand.NewSource(16))
	img := tensor.RandomUniform(rng, tensor.S3(9, 9, 1), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.S3(3, 3, 1), -1, 1)
	d := ValidDirect(img, ker, tensor.Dense())
	f := ValidFFT(img, ker, tensor.Dense())
	if diff := d.MaxAbsDiff(f); diff > 1e-9 {
		t.Errorf("2D FFT conv differs from direct by %g", diff)
	}
	if d.S != tensor.S3(7, 7, 1) {
		t.Errorf("2D valid output shape = %v", d.S)
	}
}
