package net_test

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
)

func buildNet(t *testing.T, seed int64) *net.Network {
	t.Helper()
	nw, err := net.Build(net.MustParse("C3-Trelu-P2-C3-Ttanh"), net.BuildOptions{
		Width: 3, OutputExtent: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestLayerwiseForwardMatchesSerial(t *testing.T) {
	ref := buildNet(t, 1)
	sut := buildNet(t, 1)
	rng := rand.New(rand.NewSource(2))
	in := tensor.RandomUniform(rng, ref.InputShape(), -1, 1)
	want, err := ref.ForwardSerial([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		x, err := net.NewLayerwiseExecutor(sut, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.Forward([]*tensor.Tensor{in.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		if d := got[0].MaxAbsDiff(want[0]); d > 1e-9 {
			t.Errorf("workers=%d: layerwise forward differs by %g", workers, d)
		}
	}
}

func TestLayerwiseRoundMatchesSerial(t *testing.T) {
	ref := buildNet(t, 3)
	sut := buildNet(t, 3)
	rng := rand.New(rand.NewSource(4))
	opt := graph.UpdateOpts{Eta: 0.05}
	x, err := net.NewLayerwiseExecutor(sut, 3)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		in := tensor.RandomUniform(rng, ref.InputShape(), -1, 1)
		des := tensor.RandomUniform(rng, ref.OutputShape(), -0.5, 0.5)
		want, err := ref.RoundSerial([]*tensor.Tensor{in}, []*tensor.Tensor{des}, ops.SquaredLoss{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()}, ops.SquaredLoss{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("round %d: layerwise loss %g vs serial %g", round, got, want)
		}
	}
	pr, ps := ref.Params(), sut.Params()
	for i := range pr {
		if math.Abs(pr[i]-ps[i]) > 1e-8 {
			t.Fatalf("weights diverged at %d", i)
		}
	}
}

func TestLayerwiseValidation(t *testing.T) {
	nw := buildNet(t, 5)
	if _, err := net.NewLayerwiseExecutor(nw, 0); err == nil {
		t.Error("zero workers not rejected")
	}
	x, err := net.NewLayerwiseExecutor(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Forward(nil); err == nil {
		t.Error("missing inputs not rejected")
	}
	if _, err := x.Forward([]*tensor.Tensor{tensor.New(tensor.Cube(2))}); err == nil {
		t.Error("wrong input shape not rejected")
	}
}
