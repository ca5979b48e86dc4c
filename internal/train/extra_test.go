package train

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// A net whose layers run different methods (mixed direct/FFT) must still
// match the all-direct serial reference.
func TestMixedMethodNetMatchesSerial(t *testing.T) {
	o := net.BuildOptions{Width: 3, OutputExtent: 3, Seed: 31}
	par, err := net.Build(net.MustParse("C2-Trelu-C5-Ttanh"), o)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := net.Build(net.MustParse("C2-Trelu-C5-Ttanh"), o)
	if err != nil {
		t.Fatal(err)
	}
	// Layer 1 (k=2) stays direct; layer 2 (k=5) runs FFT.
	for _, e := range par.G.Edges {
		if op, ok := e.Op.(*graph.ConvOp); ok && op.Kernel.S == tensor.Cube(5) {
			op.Tr.SetMethodPrec(conv.FFT, conv.PrecF64)
		}
	}
	rng := rand.New(rand.NewSource(32))
	in := tensor.RandomUniform(rng, par.InputShape(), -1, 1)
	want, err := ser.ForwardSerial([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(par.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	got, err := infer1(en, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if d := got[0].MaxAbsDiff(want[0]); d > 1e-9 {
		t.Errorf("mixed-method forward differs by %g", d)
	}
}

// Multi-input networks (InWidth > 1): the first conv layer sums over all
// input nodes via the wait-free sum.
func TestMultiInputNetwork(t *testing.T) {
	nw, err := net.Build(net.MustParse("C3-Ttanh-C2"), net.BuildOptions{
		Width: 2, InWidth: 3, OutputExtent: 2, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Inputs) != 3 {
		t.Fatalf("built %d inputs", len(nw.Inputs))
	}
	ref, err := net.Build(net.MustParse("C3-Ttanh-C2"), net.BuildOptions{
		Width: 2, InWidth: 3, OutputExtent: 2, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	inputs := make([]*tensor.Tensor, 3)
	cloned := make([]*tensor.Tensor, 3)
	for i := range inputs {
		inputs[i] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		cloned[i] = inputs[i].Clone()
	}
	want, err := ref.ForwardSerial(inputs)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(nw.G, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	got, err := infer1(en, cloned...)
	if err != nil {
		t.Fatal(err)
	}
	if d := got[0].MaxAbsDiff(want[0]); d > 1e-9 {
		t.Errorf("multi-input forward differs by %g", d)
	}
}

// Interleaving inference and training rounds must keep both correct:
// inference does not spawn updates, training rounds after inference still
// force the right pending updates.
func TestInterleavedInferenceAndTraining(t *testing.T) {
	nw, err := net.Build(net.MustParse("C3-Ttanh-C3"), net.BuildOptions{
		Width: 2, OutputExtent: 2, Seed: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := net.Build(net.MustParse("C3-Ttanh-C3"), net.BuildOptions{
		Width: 2, OutputExtent: 2, Seed: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	en, err := NewEngine(nw.G, Config{Workers: 2, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	for i := 0; i < 4; i++ {
		in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		des := tensor.RandomUniform(rng, nw.OutputShape(), -0.5, 0.5)
		gotLoss, err := en.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		wantLoss, err := ref.RoundSerial([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()},
			ops.SquaredLoss{}, graph.UpdateOpts{Eta: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotLoss-wantLoss) > 1e-8*(1+math.Abs(wantLoss)) {
			t.Fatalf("round %d: loss %g vs serial %g", i, gotLoss, wantLoss)
		}
		// Inference pass between training rounds: must equal serial
		// forward with the reference's current (post-update) weights.
		probe := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		gotOut, err := infer1(en, probe.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wantOut, err := ref.ForwardSerial([]*tensor.Tensor{probe})
		if err != nil {
			t.Fatal(err)
		}
		if d := gotOut[0].MaxAbsDiff(wantOut[0]); d > 1e-8 {
			t.Fatalf("round %d: interleaved inference differs by %g", i, d)
		}
	}
}

// Engine must reject graphs whose validation fails.
func TestEngineRejectsInvalidGraph(t *testing.T) {
	if _, err := NewEngine(graph.New(), Config{Workers: 1}); err == nil {
		t.Error("empty graph accepted")
	}
}
