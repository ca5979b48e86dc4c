package ops

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"znn/internal/tensor"
)

func TestMaxPoolKnownValues(t *testing.T) {
	in := tensor.FromSlice(tensor.S3(4, 2, 1),
		1, 5, 2, 0,
		3, 4, 8, 1)
	out, argmax := MaxPoolForward(in, tensor.S3(2, 2, 1))
	want := tensor.FromSlice(tensor.S3(2, 1, 1), 5, 8)
	if !out.Equal(want) {
		t.Errorf("MaxPool = %v, want %v", out.Data, want.Data)
	}
	if argmax[0] != int32(in.S.Index(1, 0, 0)) || argmax[1] != int32(in.S.Index(2, 1, 0)) {
		t.Errorf("argmax = %v", argmax)
	}
}

func TestMaxPoolBackwardScatter(t *testing.T) {
	in := tensor.FromSlice(tensor.S3(4, 2, 1),
		1, 5, 2, 0,
		3, 4, 8, 1)
	_, argmax := MaxPoolForward(in, tensor.S3(2, 2, 1))
	grad := tensor.FromSlice(tensor.S3(2, 1, 1), 10, 20)
	back := MaxPoolBackward(grad, argmax, in.S)
	want := tensor.FromSlice(tensor.S3(4, 2, 1),
		0, 10, 0, 0,
		0, 0, 20, 0)
	if !back.Equal(want) {
		t.Errorf("MaxPoolBackward = %v, want %v", back.Data, want.Data)
	}
}

func TestMaxPoolIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible pooling did not panic")
		}
	}()
	MaxPoolForward(tensor.New(tensor.S3(5, 4, 4)), tensor.S3(2, 2, 2))
}

func TestMaxFilterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := tensor.Shape{X: 1 + r.Intn(3), Y: 1 + r.Intn(3), Z: 1 + r.Intn(3)}
		s := tensor.Shape{X: w.X + r.Intn(6), Y: w.Y + r.Intn(6), Z: w.Z + r.Intn(6)}
		// Integer values provoke ties, exercising tie-break consistency.
		in := tensor.RandomInts(r, s, 3)
		wantV, wantI := NaiveMaxFilter(in, w)
		for _, algo := range []FilterAlgo{FilterHeap, FilterDeque} {
			gotV, gotI := MaxFilterForward(in, w, tensor.Dense(), algo, nil)
			if !gotV.Equal(wantV) {
				return false
			}
			for i := range gotI {
				if gotI[i] != wantI[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMaxFilterWindowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := tensor.RandomUniform(rng, tensor.Cube(4), -1, 1)
	out, argmax := MaxFilterForward(in, tensor.Cube(1), tensor.Dense(), FilterDeque, nil)
	if !out.Equal(in) {
		t.Error("1×1×1 max filter is not the identity")
	}
	for i, a := range argmax {
		if int(a) != i {
			t.Fatalf("argmax[%d] = %d", i, a)
		}
	}
}

func TestMaxFilterTooLargeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized window did not panic")
		}
	}()
	MaxFilterForward(tensor.New(tensor.Cube(3)), tensor.Cube(4), tensor.Dense(), FilterDeque, nil)
}

func TestMaxFilterAnisotropic(t *testing.T) {
	// Window along a single axis behaves like a 1D running maximum.
	in := tensor.FromSlice(tensor.S3(5, 1, 1), 3, 1, 4, 1, 5)
	out, _ := MaxFilterForward(in, tensor.S3(3, 1, 1), tensor.Dense(), FilterDeque, nil)
	want := tensor.FromSlice(tensor.S3(3, 1, 1), 4, 4, 5)
	if !out.Equal(want) {
		t.Errorf("1D max filter = %v, want %v", out.Data, want.Data)
	}
}

func TestMaxFilterBackwardAccumulatesTies(t *testing.T) {
	// A constant image: every window selects its last voxel (ties resolve
	// to the highest linear index); gradients accumulate there.
	in := tensor.New(tensor.S3(3, 1, 1))
	in.Fill(7)
	_, argmax := MaxFilterForward(in, tensor.S3(2, 1, 1), tensor.Dense(), FilterDeque, nil)
	grad := tensor.FromSlice(tensor.S3(2, 1, 1), 1, 1)
	back := MaxFilterBackward(grad, argmax, in.S)
	want := tensor.FromSlice(tensor.S3(3, 1, 1), 0, 1, 1)
	if !back.Equal(want) {
		t.Errorf("backward = %v, want %v", back.Data, want.Data)
	}
}

// The max-filter Jacobian is the adjoint of the forward at the selection
// pattern: <filter(x), u> has gradient scatter(u) wherever selection is
// locally constant, verified by finite differences on generic (tie-free)
// inputs.
func TestMaxFilterBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const h = 1e-6
	in := tensor.RandomUniform(rng, tensor.S3(5, 4, 3), -1, 1)
	w := tensor.S3(2, 2, 2)
	u := tensor.RandomUniform(rng, in.S.ValidConv(w, tensor.Dense()), -1, 1)
	_, argmax := MaxFilterForward(in, w, tensor.Dense(), FilterDeque, nil)
	grad := MaxFilterBackward(u, argmax, in.S)
	for i := 0; i < in.S.Volume(); i += 7 { // sample voxels
		plus := in.Clone()
		plus.Data[i] += h
		minus := in.Clone()
		minus.Data[i] -= h
		outP, _ := MaxFilterForward(plus, w, tensor.Dense(), FilterDeque, nil)
		outM, _ := MaxFilterForward(minus, w, tensor.Dense(), FilterDeque, nil)
		want := (outP.Dot(u) - outM.Dot(u)) / (2 * h)
		if math.Abs(grad.Data[i]-want) > 1e-5 {
			t.Fatalf("dL/dx[%d] = %v, finite diff %v", i, grad.Data[i], want)
		}
	}
}

func TestMaxPoolMatchesFilterPlusSubsample(t *testing.T) {
	// Max-pooling with window p equals max-filtering with window p followed
	// by subsampling at stride p from offset 0 (the relationship that makes
	// sliding-window networks trainable as max-filtering networks, Fig. 2).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		p := tensor.Shape{X: 1 + rng.Intn(3), Y: 1 + rng.Intn(3), Z: 1 + rng.Intn(2)}
		s := p.Mul(tensor.Shape{X: 1 + rng.Intn(4), Y: 1 + rng.Intn(4), Z: 1 + rng.Intn(3)})
		in := tensor.RandomUniform(rng, s, -1, 1)
		pooled, _ := MaxPoolForward(in, p)
		filtered, _ := MaxFilterForward(in, p, tensor.Dense(), FilterDeque, nil)
		sub := filtered.Subsample(0, 0, 0, tensor.Sparsity{X: p.X, Y: p.Y, Z: p.Z}, pooled.S)
		if !sub.Equal(pooled) {
			t.Fatalf("trial %d: pooling != filter+subsample", trial)
		}
	}
}

func TestFilterStatsComplexity(t *testing.T) {
	// The heap variant must do O(n log k) comparisons per 1D pass, the
	// paper's Table I accounting. Check the constant is sane: for n=4096,
	// k=8, comparisons/element should be below ~4·log2(k).
	rng := rand.New(rand.NewSource(5))
	in := tensor.RandomUniform(rng, tensor.S3(8192, 1, 1), -1, 1)
	perElem := func(k int, algo FilterAlgo) float64 {
		var st FilterStats
		MaxFilterForward(in, tensor.S3(k, 1, 1), tensor.Dense(), algo, &st)
		return float64(st.Comparisons) / float64(st.Elements)
	}
	// Absolute bound with a generous constant.
	if got := perElem(8, FilterHeap); got > 8*math.Log2(8) {
		t.Errorf("heap filter k=8: %.1f comparisons/element, want ≤ %.1f", got, 8*math.Log2(8))
	}
	// Scaling: growing k by 16× must grow cost like log k (≤ ~2.5×), far
	// below the 16× a linear-scan filter would show.
	r := perElem(64, FilterHeap) / perElem(4, FilterHeap)
	if r > 4 {
		t.Errorf("heap filter cost ratio k=64/k=4 is %.2f, want ≤ 4 (logarithmic)", r)
	}
	// The deque variant is O(1) amortized regardless of k.
	if got := perElem(64, FilterDeque); got > 3 {
		t.Errorf("deque filter k=64: %.2f comparisons/element, want ≤ 3", got)
	}
}

// naiveSparseMaxFilter evaluates the dilated sliding maximum from the
// definition.
func naiveSparseMaxFilter(in *tensor.Tensor, w tensor.Shape, sp tensor.Sparsity) (*tensor.Tensor, []int32) {
	os := in.S.ValidConv(w, sp)
	out := tensor.New(os)
	argmax := make([]int32, os.Volume())
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				best := in.At(x, y, z)
				bestIdx := in.S.Index(x, y, z)
				for dz := 0; dz < w.Z; dz++ {
					for dy := 0; dy < w.Y; dy++ {
						for dx := 0; dx < w.X; dx++ {
							i := in.S.Index(x+dx*sp.X, y+dy*sp.Y, z+dz*sp.Z)
							if v := in.Data[i]; v > best || (v == best && i > bestIdx) {
								best = v
								bestIdx = i
							}
						}
					}
				}
				oi := os.Index(x, y, z)
				out.Data[oi] = best
				argmax[oi] = int32(bestIdx)
			}
		}
	}
	return out, argmax
}

func TestSparseMaxFilterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := tensor.Shape{X: 1 + r.Intn(3), Y: 1 + r.Intn(3), Z: 1 + r.Intn(2)}
		sp := tensor.Sparsity{X: 1 + r.Intn(3), Y: 1 + r.Intn(3), Z: 1 + r.Intn(2)}
		s := tensor.Shape{
			X: sp.X*(w.X-1) + 1 + r.Intn(6),
			Y: sp.Y*(w.Y-1) + 1 + r.Intn(6),
			Z: sp.Z*(w.Z-1) + 1 + r.Intn(4),
		}
		in := tensor.RandomInts(r, s, 4) // ties exercise tie-break consistency
		wantV, wantI := naiveSparseMaxFilter(in, w, sp)
		for _, algo := range []FilterAlgo{FilterHeap, FilterDeque} {
			gotV, gotI := MaxFilterForward(in, w, sp, algo, nil)
			if !gotV.Equal(wantV) {
				return false
			}
			for i := range gotI {
				if gotI[i] != wantI[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestSparseMaxFilterDenseFallback pins the dilated pass at d = 1, where
// each axis is a single residue class, against the same definition.
func TestSparseMaxFilterDenseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := tensor.RandomUniform(rng, tensor.Cube(6), -1, 1)
	for _, w := range []tensor.Shape{tensor.Cube(1), tensor.Cube(2), tensor.S3(3, 1, 2), tensor.Cube(6)} {
		wantV, wantI := naiveSparseMaxFilter(in, w, tensor.Dense())
		for _, algo := range []FilterAlgo{FilterHeap, FilterDeque} {
			gotV, gotI := MaxFilterForward(in, w, tensor.Dense(), algo, nil)
			if !gotV.Equal(wantV) {
				t.Fatalf("window %v algo %v: values differ from the definition", w, algo)
			}
			for i := range gotI {
				if gotI[i] != wantI[i] {
					t.Fatalf("window %v algo %v: argmax differs at %d", w, algo, i)
				}
			}
		}
	}
}

func TestArgmaxOutOfRangePanics(t *testing.T) {
	grad := tensor.New(tensor.Cube(2))
	argmax := make([]int32, grad.S.Volume())
	argmax[0] = 999
	for name, f := range map[string]func(){
		"pool":   func() { MaxPoolBackward(grad, argmax, tensor.Cube(2)) },
		"filter": func() { MaxFilterBackward(grad, argmax, tensor.Cube(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range argmax did not panic", name)
				}
			}()
			f()
		}()
	}
}
