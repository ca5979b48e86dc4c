package net

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/ops"
	"znn/internal/tensor"
)

func TestParseAndString(t *testing.T) {
	spec, err := Parse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Layers) != 10 {
		t.Fatalf("parsed %d layers, want 10", len(spec.Layers))
	}
	if spec.String() != "C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu" {
		t.Errorf("round trip = %q", spec.String())
	}
	if spec.Layers[0].Kind != ConvLayer || spec.Layers[0].Window != 3 {
		t.Error("first layer wrong")
	}
	if spec.Layers[2].Kind != FilterLayer {
		t.Error("third layer should be a filter")
	}
}

func TestParseAllKinds(t *testing.T) {
	spec := MustParse("C5 Ttanh P2 M3 D0.5")
	kinds := []LayerKind{ConvLayer, TransferLayer, PoolLayer, FilterLayer, DropoutLayer}
	for i, k := range kinds {
		if spec.Layers[i].Kind != k {
			t.Errorf("layer %d kind %v, want %v", i, spec.Layers[i].Kind, k)
		}
	}
	if spec.Layers[4].Keep != 0.5 {
		t.Error("dropout keep wrong")
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "X3", "C", "Cx", "C0", "P0", "D0", "D1.5", "T", "C3-DNaN", "C3-Dnan", "D-Inf"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) did not fail", s)
		}
	}
}

func TestToFiltering(t *testing.T) {
	spec := MustParse("C3-Trelu-P2-C3")
	f := spec.ToFiltering()
	if f.Layers[2].Kind != FilterLayer || f.Layers[2].Window != 2 {
		t.Error("pool not converted to filter")
	}
	// Original untouched.
	if spec.Layers[2].Kind != PoolLayer {
		t.Error("ToFiltering mutated the source spec")
	}
}

func TestGeometryPoolingVsFiltering(t *testing.T) {
	// The pooling spec and its filtering transform must have the same
	// field of view (the heart of the Fig. 2 equivalence).
	for _, s := range []string{
		"C3-Trelu-P2-C3-Trelu",
		"C3-Trelu-P2-C3-Trelu-P2-C3-Trelu",
		"C5-Tlogistic-P3-C3",
		"C2-Trelu-P2-C2-Trelu-P2-C2",
	} {
		pool := MustParse(s)
		filt := pool.ToFiltering()
		if pool.FieldOfView() != filt.FieldOfView() {
			t.Errorf("%s: pooling fov %d != filtering fov %d",
				s, pool.FieldOfView(), filt.FieldOfView())
		}
	}
}

func TestFieldOfViewKnownValues(t *testing.T) {
	// C3-P2-C3: fov = ((1+2)*2)+2 = 8.
	if got := MustParse("C3-Trelu-P2-C3").FieldOfView(); got != 8 {
		t.Errorf("fov = %d, want 8", got)
	}
	// Paper's 3D net C3TM2C3TM2C3TC3T: backward: 1+2=3 ·2=6 +2=8 ·2=16 +2=18... wait
	// walk: out=1; C3:+2 →3; M2(filter, sparsity applies forward)...
	// computed value checked for self-consistency instead:
	spec := MustParse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu")
	in, err := spec.InputExtent(12) // paper's output patch 12³
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.OutputExtent(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != 12 {
		t.Errorf("InputExtent/OutputExtent do not invert: out=%d", out)
	}
}

func TestOutputExtentDivisibilityError(t *testing.T) {
	spec := MustParse("C3-Trelu-P2")
	// in=10: conv → 8 (divisible); in=9 → 7, not divisible by 2.
	if _, err := spec.OutputExtent(9); err == nil {
		t.Error("indivisible pooling extent not rejected")
	}
	if _, err := spec.OutputExtent(10); err != nil {
		t.Errorf("valid extent rejected: %v", err)
	}
}

func TestBuildStructure(t *testing.T) {
	nw, err := Build(MustParse("C3-Trelu-M2-C3-Trelu"), BuildOptions{
		Width:        4,
		OutWidth:     2,
		OutputExtent: 3,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Inputs) != 1 || len(nw.Outputs) != 2 {
		t.Fatalf("inputs=%d outputs=%d", len(nw.Inputs), len(nw.Outputs))
	}
	// conv layer 1: 1→4 edges; conv layer 2: 4→2 = 8 edges.
	if len(nw.convLayers) != 2 || len(nw.convLayers[0]) != 4 || len(nw.convLayers[1]) != 8 {
		t.Fatalf("conv layer sizes wrong: %d layers", len(nw.convLayers))
	}
	if nw.ConvEdgeCount() != 12 {
		t.Errorf("ConvEdgeCount = %d, want 12", nw.ConvEdgeCount())
	}
	// Output shape is the requested patch.
	if nw.OutputShape() != tensor.Cube(3) {
		t.Errorf("output shape %v", nw.OutputShape())
	}
	// Input extent: out 3 →(T) 3 →(C3,s2... filter spec: C3 s=1? layers:
	// C3(s1), T, M2(s1), C3(s2), T: backward 3 +2·2=7 +1·1=8 +2=10.
	if nw.InputShape() != tensor.Cube(10) {
		t.Errorf("input shape %v, want 10³", nw.InputShape())
	}
}

func TestBuild2D(t *testing.T) {
	nw, err := Build(MustParse("C3-Trelu-C3-Trelu"), BuildOptions{
		Width:        3,
		Dims:         2,
		OutputExtent: 4,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.InputShape() != tensor.S3(8, 8, 1) {
		t.Errorf("2D input shape %v, want 8x8x1", nw.InputShape())
	}
	if nw.OutputShape() != tensor.S3(4, 4, 1) {
		t.Errorf("2D output shape %v", nw.OutputShape())
	}
}

func TestBuildErrors(t *testing.T) {
	cases := map[string]BuildOptions{
		"no width":     {OutputExtent: 3},
		"both extents": {Width: 2, OutputExtent: 3, InputExtent: 9},
		"no extent":    {Width: 2},
		"bad dims":     {Width: 2, OutputExtent: 3, Dims: 4},
	}
	for name, o := range cases {
		if _, err := Build(MustParse("C3-Trelu"), o); err == nil {
			t.Errorf("%s: Build did not fail", name)
		}
	}
	// Kernel larger than image.
	if _, err := Build(MustParse("C9"), BuildOptions{Width: 1, InputExtent: 4}); err == nil {
		t.Error("oversized kernel not rejected")
	}
	if _, err := Build(Spec{}, BuildOptions{Width: 1, InputExtent: 4}); err == nil {
		t.Error("empty spec not rejected")
	}
}

func TestSameSeedSameParams(t *testing.T) {
	o := BuildOptions{Width: 3, OutputExtent: 2, Seed: 7}
	a, err := Build(MustParse("C3-Trelu-C3"), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(MustParse("C3-Trelu-C3"), o)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) || len(pa) != a.NumParams() {
		t.Fatalf("param lengths %d vs %d vs %d", len(pa), len(pb), a.NumParams())
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("params differ at %d with same seed", i)
		}
	}
}

func TestSetParamsRoundTrip(t *testing.T) {
	o := BuildOptions{Width: 2, OutputExtent: 2, Seed: 3}
	a, _ := Build(MustParse("C3-Ttanh-C3"), o)
	o.Seed = 99
	b, _ := Build(MustParse("C3-Ttanh-C3"), o)
	if err := b.SetParams(a.Params()); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("SetParams did not copy parameter %d", i)
		}
	}
	// Networks with copied params compute identical outputs.
	rng := rand.New(rand.NewSource(5))
	in := tensor.RandomUniform(rng, a.InputShape(), -1, 1)
	oa, err := a.ForwardSerial([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.ForwardSerial([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	if d := oa[0].MaxAbsDiff(ob[0]); d > 1e-12 {
		t.Errorf("outputs differ by %g after weight copy", d)
	}
	if err := b.SetParams(a.Params()[:3]); err == nil {
		t.Error("short param vector not rejected")
	}
	if err := b.SetParams(append(a.Params(), 1)); err == nil {
		t.Error("long param vector not rejected")
	}
}

func TestForwardSerialMatchesManualTinyNet(t *testing.T) {
	// One conv edge with a known kernel: serial forward must equal the
	// conv package's answer.
	nw, err := Build(MustParse("C2"), BuildOptions{Width: 1, InputExtent: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	in := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	out, err := nw.ForwardSerial([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	want := conv.ValidDirect(in, nw.convLayers[0][0].Kernel, tensor.Dense())
	if d := out[0].MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("serial forward differs by %g", d)
	}
}

// E16: the sliding-window equivalence of Fig. 2. A max-pooling ConvNet
// applied at every window offset produces exactly the dense output of the
// equivalent max-filtering ConvNet with sparse convolutions and shared
// weights.
func TestSlidingWindowEquivalence(t *testing.T) {
	poolSpec := MustParse("C3-Trelu-P2-C2-Trelu")
	filtSpec := poolSpec.ToFiltering()

	poolNet, err := Build(poolSpec, BuildOptions{Width: 3, OutputExtent: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Dense output patch of extent 5 for the filtering net.
	const patch = 5
	filtNet, err := Build(filtSpec, BuildOptions{Width: 3, OutputExtent: patch, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := filtNet.SetParams(poolNet.Params()); err != nil {
		t.Fatal(err)
	}

	fov := poolSpec.FieldOfView()
	if got := poolNet.InputShape(); got != tensor.Cube(fov) {
		t.Fatalf("pooling net input %v, want fov %d", got, fov)
	}
	wantIn := fov + patch - 1
	if got := filtNet.InputShape(); got != tensor.Cube(wantIn) {
		t.Fatalf("filtering net input %v, want %d", got, wantIn)
	}

	rng := rand.New(rand.NewSource(13))
	big := tensor.RandomUniform(rng, tensor.Cube(wantIn), -1, 1)

	dense, err := filtNet.ForwardSerial([]*tensor.Tensor{big})
	if err != nil {
		t.Fatal(err)
	}
	// Slide the pooling net over every offset.
	for z := 0; z < patch; z++ {
		for y := 0; y < patch; y++ {
			for x := 0; x < patch; x++ {
				win := big.CropFrom(x, y, z, tensor.Cube(fov))
				out, err := poolNet.ForwardSerial([]*tensor.Tensor{win})
				if err != nil {
					t.Fatal(err)
				}
				got := out[0].At(0, 0, 0)
				want := dense[0].At(x, y, z)
				if d := got - want; d > 1e-9 || d < -1e-9 {
					t.Fatalf("offset (%d,%d,%d): sliding %g vs dense %g",
						x, y, z, got, want)
				}
			}
		}
	}
}

func TestRoundSerialReducesLoss(t *testing.T) {
	nw, err := Build(MustParse("C3-Ttanh-C3"), BuildOptions{Width: 2, OutputExtent: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	desired := tensor.RandomUniform(rng, nw.OutputShape(), -0.5, 0.5)
	opt := graph.UpdateOpts{Eta: 0.05}
	first, err := nw.RoundSerial([]*tensor.Tensor{in}, []*tensor.Tensor{desired}, ops.SquaredLoss{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 30; i++ {
		last, err = nw.RoundSerial([]*tensor.Tensor{in}, []*tensor.Tensor{desired}, ops.SquaredLoss{}, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %g last %g", first, last)
	}
}

func TestLayerMethodsRecorded(t *testing.T) {
	nw, err := Build(MustParse("C3-Trelu-C3"), BuildOptions{
		Width: 2, OutputExtent: 2, Seed: 16, Method: conv.FFT,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := nw.ConvEdgeCount(); n != 4 {
		t.Fatalf("%d conv edges, want 4", n)
	}
	for _, layer := range nw.convLayers {
		for _, op := range layer {
			if m := op.Tr.Method(); m != conv.FFT {
				t.Errorf("built with FFT but an edge runs %v", m)
			}
		}
	}
}

// TestLayerGeomsPerLayer: the planner's graph-derived view of a layered
// net is one entry per conv layer — the spec walk's geometry with the mean
// density of that layer's live kernels — including two layers of identical
// geometry, which stay two entries so a plan charges both.
func TestLayerGeomsPerLayer(t *testing.T) {
	for _, spec := range []string{"C5-Ttanh-C7", "C1-Trelu-C1-Trelu-C1"} {
		o := BuildOptions{Width: 4, OutWidth: 4, OutputExtent: 6, Seed: 24}
		nw, err := Build(MustParse(spec), o)
		if err != nil {
			t.Fatal(err)
		}
		p := nw.Params()
		for i := 0; i < len(p); i += 2 {
			p[i] = 0 // about half of every kernel
		}
		if err := nw.SetParams(p); err != nil {
			t.Fatal(err)
		}
		want, err := LayerGeomsFor(MustParse(spec), o, nw.InputShape())
		if err != nil {
			t.Fatal(err)
		}
		for i, layer := range nw.convLayers {
			for _, op := range layer {
				want[i].Density += conv.Density(op.Kernel) / float64(len(layer))
			}
		}
		got := nw.LayerGeoms()
		if len(got) != len(want) {
			t.Fatalf("%s: %d layer geometries, want %d", spec, len(got), len(want))
		}
		for i := range got {
			if d := math.Abs(got[i].Density - want[i].Density); d > 1e-12 {
				t.Errorf("%s layer %d: density %v, want %v", spec, i, got[i].Density, want[i].Density)
			}
			got[i].Density, want[i].Density = 0, 0
			if got[i] != want[i] {
				t.Errorf("%s layer %d: %+v, want %+v", spec, i, got[i], want[i])
			}
		}
	}
}
