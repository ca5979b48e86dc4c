package train

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// fusedCheckNet builds a width-3 all-direct graph whose direct groups have
// fan-in and fan-out above one, mixed 3³ and 5×5×1 kernels and one
// sparsity-2 layer: in → 3×(3³) → tanh → 3×(5×5×1, fan-in 3) → logistic →
// 2×(3³ at sparsity 2, fan-in 3) → linear. Biases start nonzero so their
// gradients are not symmetric.
func fusedCheckNet(seed int64) *net.Network {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	in := g.AddNode("in", tensor.S3(16, 16, 12))
	cur := []*graph.Node{in}
	layers := []struct {
		width int
		k     tensor.Shape
		sp    tensor.Sparsity
		f     ops.Transfer
	}{
		{3, tensor.Cube(3), tensor.Dense(), ops.Tanh{}},
		{3, tensor.S3(5, 5, 1), tensor.Dense(), ops.Logistic{}},
		{2, tensor.Cube(3), tensor.Uniform(2), ops.Linear{}},
	}
	for l, ly := range layers {
		shape := cur[0].Shape.ValidConv(ly.k, ly.sp)
		next := make([]*graph.Node, ly.width)
		for j := range next {
			sum := g.AddNode(fmt.Sprintf("L%d/conv/%d", l, j), shape)
			for _, u := range cur {
				ker := graph.InitKernel(rng, ly.k, len(cur))
				g.Connect(u, sum, graph.NewConvOp(u.Shape, ker, ly.sp, conv.Direct, false, nil))
			}
			next[j] = g.AddNode(fmt.Sprintf("L%d/t/%d", l, j), shape)
			g.Connect(sum, next[j], graph.NewTransferOp(ly.f, rng.Float64()-0.5))
		}
		cur = next
	}
	return &net.Network{G: g, Inputs: []*graph.Node{in}, Outputs: cur}
}

// params returns pointers to every kernel coefficient and transfer bias of
// g, in edge order.
func params(g *graph.Graph) []*float64 {
	var p []*float64
	for _, e := range g.Edges {
		switch op := e.Op.(type) {
		case *graph.ConvOp:
			for i := range op.Kernel.Data {
				p = append(p, &op.Kernel.Data[i])
			}
		case *graph.TransferOp:
			p = append(p, &op.Bias)
		}
	}
	return p
}

// TestFusedGradientsNumerical checks a training round through the node
// tasks — fused forward sums, padded-once backward sums, per-edge kernel
// updates, slice-level transfers — against central differences of the
// serial reference's loss: every conv kernel's and every transfer bias's
// gradient, each within the relative tolerance of
// conv.TestDirectGradientsNumerical.
func TestFusedGradientsNumerical(t *testing.T) {
	nw, ref := fusedCheckNet(91), fusedCheckNet(91)
	rng := rand.New(rand.NewSource(92))
	in := tensor.RandomUniform(rng, nw.Inputs[0].Shape, -1, 1)
	des := make([]*tensor.Tensor, len(nw.Outputs))
	for i, o := range nw.Outputs {
		des[i] = tensor.RandomUniform(rng, o.Shape, -0.5, 0.5)
	}
	en, err := NewEngine(nw.G, Config{Workers: 2, Eta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.Round([]*tensor.Tensor{in}, des); err != nil {
		t.Fatal(err)
	}
	if err := en.Close(); err != nil {
		t.Fatal(err)
	}
	lossAt := func() float64 {
		out, err := ref.ForwardSerial([]*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		l, _ := ops.SquaredLoss{}.Eval(out, des)
		return l
	}
	after, before := params(nw.G), params(ref.G)
	const h = 1e-5
	i := 0
	for _, e := range ref.G.Edges {
		n := 1
		if op, ok := e.Op.(*graph.ConvOp); ok {
			n = len(op.Kernel.Data)
		}
		var maxErr, maxGrad float64
		for _, p := range before[i : i+n] {
			x0 := *p
			*p = x0 + h
			lp := lossAt()
			*p = x0 - h
			lm := lossAt()
			*p = x0
			got := x0 - *after[i] // η = 1
			maxErr = math.Max(maxErr, math.Abs((lp-lm)/(2*h)-got))
			maxGrad = math.Max(maxGrad, math.Abs(got))
			i++
		}
		if rel := maxErr / maxGrad; !(rel <= 1e-6) {
			t.Errorf("%s edge %s: relative error %g vs central differences (max |grad| %g)", e.Op.Kind(), e, rel, maxGrad)
		}
	}
}

// mixedFanInNet builds nodes where direct groups meet other edges: v sums
// two direct in-edges from 12×12×8 sources (one group), a direct 5³ edge
// from a 14×14×10 source (a second group) and an FFT edge, so its forward
// sum joins three parts; a's direct out-edges go to targets of two shapes
// (two backward groups), and w also takes an FFT edge from a2.
func mixedFanInNet(seed int64) *net.Network {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	in := g.AddNode("in", tensor.S3(14, 14, 10))
	conv3 := func(u, v *graph.Node, m conv.Method) {
		g.Connect(u, v, graph.NewConvOp(u.Shape, graph.InitKernel(rng, tensor.Cube(3), 2), tensor.Dense(), m, false, nil))
	}
	a, a2, a3 := g.AddNode("a", tensor.S3(12, 12, 8)), g.AddNode("a2", tensor.S3(12, 12, 8)), g.AddNode("a3", tensor.S3(12, 12, 8))
	b := g.AddNode("b", in.Shape)
	conv3(in, a, conv.Direct)
	conv3(in, a2, conv.Direct)
	conv3(in, a3, conv.Direct)
	g.Connect(in, b, graph.NewTransferOp(ops.Tanh{}, 0.1))
	v, w := g.AddNode("v", tensor.S3(10, 10, 6)), g.AddNode("w", a.Shape)
	conv3(a, v, conv.Direct)
	conv3(a2, v, conv.Direct)
	g.Connect(b, v, graph.NewConvOp(b.Shape, graph.InitKernel(rng, tensor.Cube(5), 4), tensor.Dense(), conv.Direct, false, nil))
	conv3(a3, v, conv.FFT)
	g.Connect(a, w, graph.NewConvOp(a.Shape, graph.InitKernel(rng, tensor.Cube(1), 2), tensor.Dense(), conv.Direct, false, nil))
	g.Connect(a2, w, graph.NewConvOp(a2.Shape, graph.InitKernel(rng, tensor.Cube(1), 2), tensor.Dense(), conv.FFT, false, nil))
	return &net.Network{G: g, Inputs: []*graph.Node{in}, Outputs: []*graph.Node{v, w}}
}

// TestMixedFanInMatchesSerial: where direct groups meet each other and FFT
// edges, each group joins the node's wait-free sum as one part, forward
// and backward, and training rounds match the serial reference.
func TestMixedFanInMatchesSerial(t *testing.T) {
	par, ser := mixedFanInNet(93), mixedFanInNet(93)
	en, err := NewEngine(par.G, Config{Workers: 3, Eta: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if p := en.p.nodes[par.Outputs[0].ID].fwdParts; p != 3 {
		t.Fatalf("v joins %d forward parts, want 3", p)
	}
	if p := en.p.nodes[par.G.Nodes[1].ID].bwdParts; p != 2 {
		t.Fatalf("a joins %d backward parts, want 2", p)
	}
	rng := rand.New(rand.NewSource(94))
	for round := 0; round < 3; round++ {
		in := tensor.RandomUniform(rng, par.Inputs[0].Shape, -1, 1)
		des := []*tensor.Tensor{tensor.RandomUniform(rng, par.Outputs[0].Shape, -1, 1), tensor.RandomUniform(rng, par.Outputs[1].Shape, -1, 1)}
		got, err := en.Round([]*tensor.Tensor{in.Clone()}, des)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ser.RoundSerial([]*tensor.Tensor{in}, des, ops.SquaredLoss{}, graph.UpdateOpts{Eta: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("round %d: loss %v, serial %v", round, got, want)
		}
	}
	if err := en.Close(); err != nil {
		t.Fatal(err)
	}
	gp, sp := params(par.G), params(ser.G)
	for i := range gp {
		if d := math.Abs(*gp[i] - *sp[i]); d > 1e-9*(1+math.Abs(*sp[i])) {
			t.Fatalf("parameter %d is %v, serial %v", i, *gp[i], *sp[i])
		}
	}
}
