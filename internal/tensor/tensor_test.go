package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeVolume(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{S3(1, 1, 1), 1},
		{S3(2, 3, 4), 24},
		{Cube(5), 125},
		{Square(7), 49},
	}
	for _, c := range cases {
		if got := c.s.Volume(); got != c.want {
			t.Errorf("%v.Volume() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeArithmetic(t *testing.T) {
	a, b := S3(4, 6, 8), S3(2, 3, 4)
	if got := a.Add(b); got != S3(6, 9, 12) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != S3(2, 3, 4) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Div(b); got != S3(2, 2, 2) {
		t.Errorf("Div = %v", got)
	}
	if got := a.Mul(b); got != S3(8, 18, 32) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(3); got != S3(12, 18, 24) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Min(S3(3, 7, 8)); got != S3(3, 6, 8) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(S3(3, 7, 8)); got != S3(4, 7, 8) {
		t.Errorf("Max = %v", got)
	}
	if !b.Fits(a) || a.Fits(b) {
		t.Errorf("Fits wrong: %v in %v", b, a)
	}
}

func TestShapeDivPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div of indivisible shapes did not panic")
		}
	}()
	S3(5, 4, 4).Div(S3(2, 2, 2))
}

func TestConvShapes(t *testing.T) {
	img := Cube(10)
	k := Cube(3)
	if got := img.ValidConv(k, Dense()); got != Cube(8) {
		t.Errorf("ValidConv dense = %v, want 8x8x8", got)
	}
	if got := img.FullConv(k, Dense()); got != Cube(12) {
		t.Errorf("FullConv dense = %v, want 12x12x12", got)
	}
	// Sparse: n - s*(k-1) = 10 - 2*2 = 6.
	if got := img.ValidConv(k, Uniform(2)); got != Cube(6) {
		t.Errorf("ValidConv sparse = %v, want 6x6x6", got)
	}
	if got := img.FullConv(k, Uniform(2)); got != Cube(14) {
		t.Errorf("FullConv sparse = %v, want 14x14x14", got)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	s := S3(3, 5, 7)
	seen := make(map[int]bool)
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			for x := 0; x < s.X; x++ {
				i := s.Index(x, y, z)
				if seen[i] {
					t.Fatalf("duplicate index %d for (%d,%d,%d)", i, x, y, z)
				}
				seen[i] = true
				gx, gy, gz := s.Coords(i)
				if gx != x || gy != y || gz != z {
					t.Fatalf("Coords(%d) = (%d,%d,%d), want (%d,%d,%d)", i, gx, gy, gz, x, y, z)
				}
			}
		}
	}
	if len(seen) != s.Volume() {
		t.Fatalf("covered %d indices, want %d", len(seen), s.Volume())
	}
}

func TestXFastestLayout(t *testing.T) {
	s := S3(4, 3, 2)
	if s.Index(1, 0, 0) != s.Index(0, 0, 0)+1 {
		t.Error("x is not the fastest-varying dimension")
	}
	if s.Index(0, 1, 0) != s.Index(0, 0, 0)+s.X {
		t.Error("y stride is not X")
	}
	if s.Index(0, 0, 1) != s.Index(0, 0, 0)+s.X*s.Y {
		t.Error("z stride is not X*Y")
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	for _, s := range []Shape{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", s)
				}
			}()
			New(s)
		}()
	}
}

func TestFromData(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	ten := FromData(S3(3, 2, 1), d)
	if ten.At(0, 0, 0) != 1 || ten.At(2, 1, 0) != 6 {
		t.Errorf("FromData content wrong: %v", ten.Data)
	}
	// Aliasing: mutation is visible both ways.
	d[0] = 42
	if ten.At(0, 0, 0) != 42 {
		t.Error("FromData did not alias the slice")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromData with wrong length did not panic")
		}
	}()
	FromData(S3(2, 2, 2), d)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(S3(2, 1, 1), 1, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	if !a.Equal(a.Clone()) {
		t.Error("Clone not equal to original")
	}
}

func TestFillZeroScale(t *testing.T) {
	a := New(S3(2, 2, 2))
	a.Fill(3)
	if a.Sum() != 24 {
		t.Errorf("Fill+Sum = %v, want 24", a.Sum())
	}
	a.Scale(0.5)
	if a.Sum() != 12 {
		t.Errorf("Scale+Sum = %v, want 12", a.Sum())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Errorf("Zero+Sum = %v, want 0", a.Sum())
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(S3(2, 1, 1), 1, 2)
	b := FromSlice(S3(2, 1, 1), 10, 20)
	a.Add(b)
	if a.Data[0] != 11 || a.Data[1] != 22 {
		t.Errorf("Add = %v", a.Data)
	}
	a.Sub(b)
	if a.Data[0] != 1 || a.Data[1] != 2 {
		t.Errorf("Sub = %v", a.Data)
	}
	a.Axpy(0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Errorf("Axpy = %v", a.Data)
	}
	if got := a.Dot(b); got != 60+240 {
		t.Errorf("Dot = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(Cube(2)), New(Cube(3))
	ops := map[string]func(){
		"Add":        func() { a.Add(b) },
		"Sub":        func() { a.Sub(b) },
		"Axpy":       func() { a.Axpy(1, b) },
		"Dot":        func() { a.Dot(b) },
		"CopyFrom":   func() { a.CopyFrom(b) },
		"MaxAbsDiff": func() { a.MaxAbsDiff(b) },
	}
	for name, f := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReflect(t *testing.T) {
	a := FromSlice(S3(2, 2, 1),
		1, 2,
		3, 4)
	r := a.Reflect()
	want := FromSlice(S3(2, 2, 1),
		4, 3,
		2, 1)
	if !r.Equal(want) {
		t.Errorf("Reflect = %v, want %v", r.Data, want.Data)
	}
	// Reflect twice is the identity.
	if !r.Reflect().Equal(a) {
		t.Error("double Reflect is not identity")
	}
}

func TestReflectEachAxis(t *testing.T) {
	// Verify that Reflect reverses each axis individually, not just the
	// flat buffer: check a known voxel mapping on an asymmetric shape.
	s := S3(2, 3, 4)
	a := New(s)
	rng := rand.New(rand.NewSource(1))
	a.FillUniform(rng, -1, 1)
	r := a.Reflect()
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			for x := 0; x < s.X; x++ {
				if r.At(x, y, z) != a.At(s.X-1-x, s.Y-1-y, s.Z-1-z) {
					t.Fatalf("Reflect wrong at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

// placeAt writes src into dst with its origin at (ox, oy, oz).
func placeAt(dst, src *Tensor, ox, oy, oz int) {
	for z := 0; z < src.S.Z; z++ {
		for y := 0; y < src.S.Y; y++ {
			for x := 0; x < src.S.X; x++ {
				dst.Set(x+ox, y+oy, z+oz, src.At(x, y, z))
			}
		}
	}
}

// TestPadCropRoundTrip zero-pads a tensor at the origin of a larger one and
// crops it back out.
func TestPadCropRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomUniform(rng, S3(3, 4, 5), -1, 1)
	p := New(S3(8, 8, 8))
	placeAt(p, a, 0, 0, 0)
	if got := p.CropFrom(3, 0, 0, S3(5, 8, 8)); got.MaxAbs() != 0 {
		t.Error("CropFrom outside the padded region is not zero")
	}
	if got := p.CropFrom(0, 0, 0, a.S); !got.Equal(a) {
		t.Error("CropFrom of the padded region is not the identity")
	}
}

// TestCopyIntoAtAndCrop places a block at an offset inside a larger tensor
// and checks that CropInto at that offset recovers it.
func TestCopyIntoAtAndCrop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := RandomUniform(rng, S3(2, 2, 2), -1, 1)
	big := New(Cube(5))
	placeAt(big, small, 1, 2, 3)
	got := New(small.S)
	big.CropInto(got, 1, 2, 3)
	if !got.Equal(small) {
		t.Error("CropInto does not recover the placed region")
	}
	if big.At(0, 0, 0) != 0 {
		t.Error("placing the block disturbed voxels outside its region")
	}
}

func TestCropOutOfRangePanics(t *testing.T) {
	a := New(Cube(4))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range crop did not panic")
		}
	}()
	a.CropFrom(2, 2, 2, Cube(3))
}

func TestDilateSubsampleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomUniform(rng, S3(3, 2, 4), -1, 1)
	sp := Sparsity{2, 3, 1}
	d := a.Dilate(sp)
	wantShape := S3((3-1)*2+1, (2-1)*3+1, (4-1)*1+1)
	if d.S != wantShape {
		t.Fatalf("Dilate shape = %v, want %v", d.S, wantShape)
	}
	if got := d.Subsample(0, 0, 0, sp, a.S); !got.Equal(a) {
		t.Error("Subsample(Dilate) is not the identity")
	}
	// Dilation preserves mass.
	if d.Sum() != a.Sum() {
		t.Errorf("Dilate changed the sum: %v vs %v", d.Sum(), a.Sum())
	}
	// Off-lattice voxels are zero.
	if d.At(1, 0, 0) != 0 {
		t.Error("Dilate left nonzero off-lattice voxel")
	}
}

func TestDilateDenseIsCopy(t *testing.T) {
	a := FromSlice(S3(2, 1, 1), 5, 6)
	d := a.Dilate(Dense())
	if !d.Equal(a) {
		t.Error("Dilate(Dense) changed values")
	}
	d.Data[0] = 0
	if a.Data[0] != 5 {
		t.Error("Dilate(Dense) aliases input")
	}
}

func TestNormsAndMax(t *testing.T) {
	a := FromSlice(S3(3, 1, 1), 3, -4, 0)
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v, want 4", a.MaxAbs())
	}
	b := FromSlice(S3(3, 1, 1), 3, -4, 2)
	if a.MaxAbsDiff(b) != 2 {
		t.Errorf("MaxAbsDiff = %v, want 2", a.MaxAbsDiff(b))
	}
	if !a.ApproxEqual(b, 2) || a.ApproxEqual(b, 1.9) {
		t.Error("ApproxEqual tolerance handling wrong")
	}
}

func TestRandomFillDeterminism(t *testing.T) {
	a := RandomUniform(rand.New(rand.NewSource(7)), Cube(4), -1, 1)
	b := RandomUniform(rand.New(rand.NewSource(7)), Cube(4), -1, 1)
	if !a.Equal(b) {
		t.Error("same seed produced different tensors")
	}
	c := RandomUniform(rand.New(rand.NewSource(8)), Cube(4), -1, 1)
	if a.Equal(c) {
		t.Error("different seeds produced identical tensors")
	}
}

func TestRandomIntsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := RandomInts(rng, Cube(6), 3)
	for _, v := range a.Data {
		if v != float64(int(v)) || v < -3 || v > 3 {
			t.Fatalf("RandomInts produced out-of-range value %v", v)
		}
	}
}

// Property: reflect distributes over addition, and dot(a, reflect(b)) ==
// dot(reflect(a), b) (reflection is self-adjoint).
func TestQuickReflectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := S3(1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5))
		a := RandomUniform(r, s, -1, 1)
		b := RandomUniform(r, s, -1, 1)
		sum := a.Clone()
		sum.Add(b)
		lhs := sum.Reflect()
		rhs := a.Reflect()
		rhs.Add(b.Reflect())
		if !lhs.ApproxEqual(rhs, 1e-12) {
			return false
		}
		return floatsClose(a.Dot(b.Reflect()), a.Reflect().Dot(b), 1e-12)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Subsample is the adjoint of Dilate, i.e.
// dot(Dilate(a), b) == dot(a, Subsample(b)).
func TestQuickDilateAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := S3(1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4))
		sp := Sparsity{1 + r.Intn(3), 1 + r.Intn(3), 1 + r.Intn(3)}
		a := RandomUniform(r, s, -1, 1)
		big := S3((s.X-1)*sp.X+1, (s.Y-1)*sp.Y+1, (s.Z-1)*sp.Z+1)
		b := RandomUniform(r, big, -1, 1)
		lhs := a.Dilate(sp).Dot(b)
		rhs := a.Dot(b.Subsample(0, 0, 0, sp, s))
		return floatsClose(lhs, rhs, 1e-12)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func floatsClose(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
