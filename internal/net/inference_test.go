package net_test

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
	"znn/internal/train"
)

// dropoutNet builds a net whose forward pass differs between training
// (dropout masks) and inference (identity) semantics.
func dropoutNet(t *testing.T) *net.Network {
	t.Helper()
	nw, err := net.Build(net.MustParse("C3-Trelu-D0.6-C3"), net.BuildOptions{
		Width: 4, OutputExtent: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func bitwiseEqual(a, b *tensor.Tensor) bool {
	if a.S != b.S {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestReferenceForwardIsInference checks that the serial and layerwise
// forward passes run inference semantics: repeated calls agree bitwise, and
// both match the engine's inference round.
func TestReferenceForwardIsInference(t *testing.T) {
	nw := dropoutNet(t)
	rng := rand.New(rand.NewSource(12))
	in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	forward := func(f func([]*tensor.Tensor) ([]*tensor.Tensor, error)) *tensor.Tensor {
		t.Helper()
		out, err := f([]*tensor.Tensor{in.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}

	s1, s2 := forward(nw.ForwardSerial), forward(nw.ForwardSerial)
	if !bitwiseEqual(s1, s2) {
		t.Errorf("two ForwardSerial calls differ by %g", s1.MaxAbsDiff(s2))
	}
	x, err := net.NewLayerwiseExecutor(nw, 2)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := forward(x.Forward), forward(x.Forward)
	if !bitwiseEqual(l1, l2) {
		t.Errorf("two layerwise Forward calls differ by %g", l1.MaxAbsDiff(l2))
	}

	en, err := train.NewEngine(dropoutNet(t).G, train.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	outs, err := en.Infer([][]*tensor.Tensor{{in.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*tensor.Tensor{"serial": s1, "layerwise": l1} {
		if d := got.MaxAbsDiff(outs[0][0]); d > 1e-9 {
			t.Errorf("%s forward differs from engine Infer by %g", name, d)
		}
	}
}

// TestForwardSerialLeavesTrainingUnchanged checks that a ForwardSerial call
// between two RoundSerial calls does not change the second round: it draws
// no dropout mask and stores no Jacobian state.
func TestForwardSerialLeavesTrainingUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nw := dropoutNet(t)
	in1 := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	in2 := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	probe := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	opt := graph.UpdateOpts{Eta: 0.05}

	secondLoss := func(nw *net.Network, between bool) float64 {
		t.Helper()
		round := func(in *tensor.Tensor) float64 {
			l, err := nw.RoundSerial([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()}, ops.SquaredLoss{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		round(in1)
		if between {
			if _, err := nw.ForwardSerial([]*tensor.Tensor{probe.Clone()}); err != nil {
				t.Fatal(err)
			}
		}
		return round(in2)
	}
	want := secondLoss(nw, false)
	if got := secondLoss(dropoutNet(t), true); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("second loss %v after a ForwardSerial, %v without", got, want)
	}
}
