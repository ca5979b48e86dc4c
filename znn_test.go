package znn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/data"
	"znn/internal/graph"
	"znn/internal/tensor"
)

func TestNewNetworkBasics(t *testing.T) {
	n, err := NewNetwork("C3-Trelu-M2-C3-Ttanh", Config{
		Width: 3, OutputPatch: 2, Workers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.OutputShape() != Cube(2) {
		t.Errorf("output shape %v", n.OutputShape())
	}
	if n.NumParams() == 0 {
		t.Error("no parameters")
	}
	if len(n.LayerMethods()) != 2 {
		t.Errorf("layer methods %v", n.LayerMethods())
	}
	if n.FieldOfView() < 3 {
		t.Errorf("fov = %d", n.FieldOfView())
	}
	rng := rand.New(rand.NewSource(2))
	in := tensor.RandomUniform(rng, n.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, n.OutputShape(), -0.5, 0.5)
	first, err := n.Train(in, des)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 25; i++ {
		if last, err = n.Train(in, des); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease: %g → %g", first, last)
	}
	if n.Loss() != last {
		t.Errorf("Loss() = %g, want %g", n.Loss(), last)
	}
	out, err := n.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].S != n.OutputShape() {
		t.Errorf("inference output shape %v", out[0].S)
	}
}

func TestNewNetworkErrors(t *testing.T) {
	cases := map[string]struct {
		spec string
		cfg  Config
	}{
		"bad spec":    {"Q9", Config{Width: 1, OutputPatch: 1}},
		"bad loss":    {"C2", Config{Width: 1, OutputPatch: 1, Loss: "hinge"}},
		"no width":    {"C2", Config{OutputPatch: 1}},
		"no extent":   {"C2", Config{Width: 1}},
		"both extent": {"C2", Config{Width: 1, OutputPatch: 1, InputPatch: 5}},
	}
	for name, c := range cases {
		if _, err := NewNetwork(c.spec, c.cfg); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestSlidingWindowConfig(t *testing.T) {
	n, err := NewNetwork("C3-Trelu-P2-C2-Trelu", Config{
		Width: 2, OutputPatch: 4, SlidingWindow: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Pooling must have been converted to filtering: the dense output
	// patch of extent 4 is only possible with filtering.
	if n.OutputShape() != Cube(4) {
		t.Errorf("sliding-window output %v, want 4³", n.OutputShape())
	}
	if got := n.Spec(); got != "C3-Trelu-M2-C2-Trelu" {
		t.Errorf("transformed spec %q", got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	n, err := NewNetwork("C3-Ttanh-C2", Config{
		Width: 2, OutputPatch: 2, Workers: 2, Seed: 4, Eta: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	in := tensor.RandomUniform(rng, n.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, n.OutputShape(), -0.5, 0.5)
	for i := 0; i < 5; i++ {
		if _, err := n.Train(in, des); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	// Drain pending updates (Close) before saving, then save.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	p1, p2 := n.Params(), restored.Params()
	if len(p1) != len(p2) {
		t.Fatalf("param counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("restored param %d differs", i)
		}
	}
	if _, err := Load(bytes.NewReader([]byte("garbage")), 1); err == nil {
		t.Error("garbage checkpoint accepted")
	}
}

func TestGraphBuilderMultiScale(t *testing.T) {
	// Two convolutional paths with different receptive-field scales
	// converging on one node: k=5 dense and k=3 at sparsity 2 both map
	// 12³ → 8³, so their outputs sum.
	cfg := Config{Workers: 2, Eta: 0.002, Seed: 6}
	b := NewGraphBuilder(cfg)
	in := b.Input("in", Cube(12))
	fine := b.Conv("fine", Cube(5), Dense(), in)
	coarse := b.Conv("coarse", Cube(3), Uniform(2), in)
	if fine.Shape() != coarse.Shape() {
		t.Fatalf("path shapes differ: %v vs %v", fine.Shape(), coarse.Shape())
	}
	ft := b.Transfer("fine/t", "relu", fine)
	ct := b.Transfer("coarse/t", "relu", coarse)
	merged := b.Conv("merge", Cube(3), Dense(), ft, ct)
	out := b.Transfer("out", "tanh", merged)
	_ = out
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	input := tensor.RandomUniform(rng, Cube(12), -1, 1)
	des := tensor.RandomUniform(rng, Cube(6), -0.5, 0.5)
	first, err := m.Train([]*Tensor{input}, []*Tensor{des})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 30; i++ {
		if last, err = m.Train([]*Tensor{input}, []*Tensor{des}); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("multi-scale model did not learn: %g → %g", first, last)
	}
	if img := m.NodeImage("fine/t"); img == nil || img.S != Cube(8) {
		t.Error("NodeImage for intermediate node unavailable")
	}
}

func TestGraphBuilderErrors(t *testing.T) {
	b := NewGraphBuilder(Config{Workers: 1})
	in := b.Input("in", Cube(4))
	b.Conv("bad", Cube(9), Dense(), in) // kernel too large
	if _, err := b.Build(); err == nil {
		t.Error("builder error not reported at Build")
	}

	b2 := NewGraphBuilder(Config{Workers: 1})
	b2.Conv("orphan", Cube(3), Dense()) // no sources
	if _, err := b2.Build(); err == nil {
		t.Error("source-less conv not reported")
	}

	b3 := NewGraphBuilder(Config{Workers: 1})
	in3 := b3.Input("in", Cube(9))
	b3.MaxPool("pool", Cube(2), in3) // 9 not divisible by 2
	if _, err := b3.Build(); err == nil {
		t.Error("indivisible pool not reported")
	}
}

// TestGraphBuilderHonoursConfig: GraphBuilder settles its conv edges'
// method and precision from the same Config fields NewNetwork does —
// Float32, Planned and MemBudget included — and rejects an unknown Conv.
// The net is one fully connected 8→8 layer of 9³ kernels on 24³ inputs:
// FFT under an unconstrained plan, direct once the budget cannot hold a
// spectrum.
func TestGraphBuilderHonoursConfig(t *testing.T) {
	build := func(cfg Config) (*Model, error) {
		cfg.Workers = 1
		b := NewGraphBuilder(cfg)
		ins := make([]NodeRef, 8)
		for i := range ins {
			ins[i] = b.Input(fmt.Sprintf("in/%d", i), Cube(24))
		}
		for j := 0; j < 8; j++ {
			b.Conv(fmt.Sprintf("out/%d", j), Cube(9), Dense(), ins...)
		}
		return b.Build()
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		method conv.Method
		prec   conv.Precision
	}{
		{"ForceFFT f32", Config{Conv: ForceFFT, Float32: true}, conv.FFT, conv.PrecF32},
		{"Autotune f32", Config{Float32: true}, conv.FFT, conv.PrecF32},
		{"Planned", Config{Conv: ForceDirect, Planned: true}, conv.FFT, conv.PrecF32},
		{"MemBudget", Config{Conv: ForceFFT, MemBudget: 1}, conv.Direct, conv.PrecF64},
	} {
		m, err := build(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, e := range m.g.Edges {
			op := e.Op.(*graph.ConvOp)
			if op.Tr.Method() != c.method || op.Tr.Precision() != c.prec {
				t.Errorf("%s: edge %s runs %v %v, want %v %v", c.name, e, op.Tr.Method(), op.Tr.Precision(), c.method, c.prec)
				break
			}
		}
		m.Close()
	}
	if _, err := build(Config{Conv: 9}); err == nil {
		t.Error("unknown Conv mode accepted")
	}
}

func TestPublicAPIBoundaryTraining(t *testing.T) {
	// End-to-end smoke test on the synthetic boundary-detection workload
	// (the paper's target application domain): loss decreases over a
	// short training run.
	n, err := NewNetwork("C3-Trelu-P2-C3-Tlogistic", Config{
		Width: 2, OutputPatch: 3, SlidingWindow: true,
		Workers: 2, Eta: 0.1, Loss: "bce", Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	prov := data.NewBoundaryProvider(n.InputShape(), n.OutputShape(), 9)
	var first, sum float64
	const rounds = 30
	for i := 0; i < rounds; i++ {
		s := prov.Next()
		loss, err := n.Train(s.Input, s.Desired[0])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		if i >= rounds-5 {
			sum += loss
		}
	}
	if avg := sum / 5; math.IsNaN(avg) || avg > first*1.5 {
		t.Errorf("boundary training diverged: first %g, final avg %g", first, sum/5)
	}
}
