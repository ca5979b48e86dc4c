package graph

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// buildDiamond makes the smallest convergent graph:
//
//	in -> a -> out  and  in -> b -> out
//
// with 3³-kernel convolutions on every edge.
func buildDiamond(t *testing.T, rng *rand.Rand) (*Graph, *Node, *Node) {
	t.Helper()
	g := New()
	in := g.AddNode("in", tensor.Cube(8))
	a := g.AddNode("a", tensor.Cube(6))
	b := g.AddNode("b", tensor.Cube(6))
	out := g.AddNode("out", tensor.Cube(4))
	mk := func(inS tensor.Shape) *ConvOp {
		k := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
		return NewConvOp(inS, k, tensor.Dense(), conv.Direct, false, nil)
	}
	g.Connect(in, a, mk(in.Shape))
	g.Connect(in, b, mk(in.Shape))
	g.Connect(a, out, mk(a.Shape))
	g.Connect(b, out, mk(b.Shape))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, in, out
}

func TestGraphConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, in, out := buildDiamond(t, rng)
	if len(g.Nodes) != 4 || len(g.Edges) != 4 {
		t.Fatalf("nodes=%d edges=%d", len(g.Nodes), len(g.Edges))
	}
	if !in.IsInput() || in.IsOutput() {
		t.Error("input node classification wrong")
	}
	if !out.IsOutput() || out.IsInput() {
		t.Error("output node classification wrong")
	}
	if len(g.Inputs()) != 1 || len(g.Outputs()) != 1 {
		t.Error("Inputs/Outputs wrong")
	}
}

func TestConnectShapeMismatchPanics(t *testing.T) {
	g := New()
	u := g.AddNode("u", tensor.Cube(8))
	v := g.AddNode("v", tensor.Cube(5)) // wrong: conv 3³ gives 6³
	rng := rand.New(rand.NewSource(2))
	k := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	defer func() {
		if recover() == nil {
			t.Error("shape-mismatched Connect did not panic")
		}
	}()
	g.Connect(u, v, NewConvOp(u.Shape, k, tensor.Dense(), conv.Direct, false, nil))
}

func TestSelfLoopPanics(t *testing.T) {
	g := New()
	u := g.AddNode("u", tensor.Cube(4))
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	g.Connect(u, u, NewTransferOp(ops.ReLU{}, 0))
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	a := g.AddNode("a", tensor.Cube(4))
	b := g.AddNode("b", tensor.Cube(4))
	g.Connect(a, b, NewTransferOp(ops.ReLU{}, 0))
	g.Connect(b, a, NewTransferOp(ops.ReLU{}, 0))
	if _, err := g.TopoSort(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a cyclic graph")
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("Validate accepted an empty graph")
	}
}

func TestTopoSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _, _ := buildDiamond(t, rng)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, e := range g.Edges {
		if pos[e.From.ID] >= pos[e.To.ID] {
			t.Errorf("edge %s violates topological order", e)
		}
	}
}

func TestPriorities(t *testing.T) {
	// A chain in -> h1 -> h2 -> out: forward priorities must strictly
	// decrease along the chain (earlier layers run first); backward
	// priorities must strictly decrease from out to in.
	g := New()
	n0 := g.AddNode("in", tensor.Cube(8))
	n1 := g.AddNode("h1", tensor.Cube(8))
	n2 := g.AddNode("h2", tensor.Cube(8))
	n3 := g.AddNode("out", tensor.Cube(8))
	for _, pair := range [][2]*Node{{n0, n1}, {n1, n2}, {n2, n3}} {
		g.Connect(pair[0], pair[1], NewTransferOp(ops.ReLU{}, 0))
	}
	g.ComputePriorities()
	if !(n0.FwdPrio > n1.FwdPrio && n1.FwdPrio > n2.FwdPrio && n2.FwdPrio > n3.FwdPrio) {
		t.Errorf("forward priorities not decreasing along chain: %d %d %d %d",
			n0.FwdPrio, n1.FwdPrio, n2.FwdPrio, n3.FwdPrio)
	}
	if !(n3.BwdPrio > n2.BwdPrio && n2.BwdPrio > n1.BwdPrio && n1.BwdPrio > n0.BwdPrio) {
		t.Errorf("backward priorities not decreasing from output: %d %d %d %d",
			n3.BwdPrio, n2.BwdPrio, n1.BwdPrio, n0.BwdPrio)
	}
	// All priorities exceed the update priority.
	for _, n := range g.Nodes {
		if n.FwdPrio <= UpdatePriority || n.BwdPrio <= UpdatePriority {
			t.Errorf("node %s priority not above UpdatePriority", n.Name)
		}
	}
}

func TestPrioritiesAreStrict(t *testing.T) {
	// Even nodes at the same distance get distinct priorities (the strict
	// ordering of Section VI-A).
	rng := rand.New(rand.NewSource(4))
	g, _, _ := buildDiamond(t, rng)
	g.ComputePriorities()
	seenF := map[int64]bool{}
	seenB := map[int64]bool{}
	for _, n := range g.Nodes {
		if seenF[n.FwdPrio] {
			t.Errorf("duplicate forward priority %d", n.FwdPrio)
		}
		if seenB[n.BwdPrio] {
			t.Errorf("duplicate backward priority %d", n.BwdPrio)
		}
		seenF[n.FwdPrio] = true
		seenB[n.BwdPrio] = true
	}
}

func TestConvOpForwardBackwardUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := tensor.RandomUniform(rng, tensor.Cube(6), -1, 1)
	k := tensor.RandomUniform(rng, tensor.Cube(3), -0.5, 0.5)
	for _, method := range []conv.Method{conv.Direct, conv.FFT} {
		op := NewConvOp(in.S, k.Clone(), tensor.Dense(), method, false, nil)
		out := op.Forward(in, nil)
		want := conv.ValidDirect(in, k, tensor.Dense())
		if d := out.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("%v forward differs by %g", method, d)
		}
		grad := tensor.RandomUniform(rng, out.S, -1, 1)
		back := op.Backward(grad, nil)
		wantB := conv.FullDirect(grad, k.Reflect(), tensor.Dense())
		if d := back.MaxAbsDiff(wantB); d > 1e-9 {
			t.Fatalf("%v backward differs by %g", method, d)
		}
		// Update moves the kernel by −η·grad.
		kBefore := op.Kernel.Clone()
		g := conv.KernelGradDirect(in, grad, k.S, tensor.Dense())
		op.Update(in, grad, UpdateOpts{Eta: 0.1})
		wantK := kBefore.Clone()
		wantK.Axpy(-0.1, g)
		if d := op.Kernel.MaxAbsDiff(wantK); d > 1e-9 {
			t.Fatalf("%v kernel update differs by %g", method, d)
		}
		// And the next forward must use the new kernel (spectra
		// invalidated).
		out2 := op.Forward(in, nil)
		want2 := conv.ValidDirect(in, op.Kernel, tensor.Dense())
		if d := out2.MaxAbsDiff(want2); d > 1e-9 {
			t.Fatalf("%v post-update forward differs by %g (stale spectra?)", method, d)
		}
	}
}

func TestConvOpMomentum(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := tensor.RandomUniform(rng, tensor.Cube(5), -1, 1)
	k := tensor.RandomUniform(rng, tensor.Cube(2), -0.5, 0.5)
	op := NewConvOp(in.S, k.Clone(), tensor.Dense(), conv.Direct, false, nil)
	grad := tensor.RandomUniform(rng, op.OutShape(in.S), -1, 1)
	g := conv.KernelGradDirect(in, grad, k.S, tensor.Dense())

	opt := UpdateOpts{Eta: 0.1, Momentum: 0.9}
	op.Update(in, grad, opt)
	// First step: v = −η·g, w = k + v.
	want := k.Clone()
	want.Axpy(-0.1, g)
	if d := op.Kernel.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("first momentum step differs by %g", d)
	}
	op.Update(in, grad, opt)
	// Second step with the same gradient: v = 0.9·(−0.1g) − 0.1g = −0.19g.
	want.Axpy(-0.19, g)
	if d := op.Kernel.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("second momentum step differs by %g", d)
	}
}

func TestTransferOpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := tensor.RandomUniform(rng, tensor.Cube(4), -1, 1)
	op := NewTransferOp(ops.Tanh{}, 0.2)
	out := op.Forward(in, nil)
	want := ops.TransferForward(ops.Tanh{}, in, 0.2)
	if !out.ApproxEqual(want, 1e-12) {
		t.Error("transfer forward wrong")
	}
	grad := tensor.RandomUniform(rng, in.S, -1, 1)
	back := op.Backward(grad, nil)
	wantB := ops.TransferBackward(ops.Tanh{}, out, grad)
	if !back.ApproxEqual(wantB, 1e-12) {
		t.Error("transfer backward wrong")
	}
	// Bias update uses the sum of the backward output.
	before := op.Bias
	op.Update(nil, nil, UpdateOpts{Eta: 0.5})
	wantBias := before - 0.5*wantB.Sum()
	if math.Abs(op.Bias-wantBias) > 1e-12 {
		t.Errorf("bias = %v, want %v", op.Bias, wantBias)
	}
}

func TestTransferBackwardBeforeForwardPanics(t *testing.T) {
	op := NewTransferOp(ops.ReLU{}, 0)
	defer func() {
		if recover() == nil {
			t.Error("backward before forward did not panic")
		}
	}()
	op.Backward(tensor.New(tensor.Cube(2)), nil)
}

func TestMaxPoolOpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := tensor.RandomUniform(rng, tensor.S3(4, 4, 2), -1, 1)
	op := NewMaxPoolOp(tensor.S3(2, 2, 1))
	if got := op.OutShape(in.S); got != tensor.S3(2, 2, 2) {
		t.Fatalf("OutShape = %v", got)
	}
	out := op.Forward(in, nil)
	grad := tensor.RandomUniform(rng, out.S, -1, 1)
	back := op.Backward(grad, nil)
	// Gradient mass is conserved by the pooling Jacobian.
	if math.Abs(back.Sum()-grad.Sum()) > 1e-12 {
		t.Error("pooling Jacobian does not conserve gradient mass")
	}
}

func TestMaxFilterOpSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := tensor.RandomUniform(rng, tensor.Cube(8), -1, 1)
	op := NewMaxFilterOp(tensor.Cube(2), tensor.Uniform(2))
	if got := op.OutShape(in.S); got != tensor.Cube(6) {
		t.Fatalf("OutShape = %v", got)
	}
	out := op.Forward(in, nil)
	grad := tensor.RandomUniform(rng, out.S, -1, 1)
	back := op.Backward(grad, nil)
	if math.Abs(back.Sum()-grad.Sum()) > 1e-12 {
		t.Error("filter Jacobian does not conserve gradient mass")
	}
}

func TestDropoutOpTrainVsInference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := tensor.RandomUniform(rng, tensor.Cube(5), 0.5, 1)
	op := NewDropoutOp(0.5, 42)
	op.Train = false
	if !op.Forward(in, nil).Equal(in) {
		t.Error("inference dropout not identity")
	}
	g := tensor.RandomUniform(rng, in.S, -1, 1)
	if !op.Backward(g, nil).Equal(g) {
		t.Error("inference dropout backward not identity")
	}
	op.Train = true
	out := op.Forward(in, nil)
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == in.S.Volume() {
		t.Errorf("training dropout zeroed %d of %d voxels", zeros, in.S.Volume())
	}
}

func TestInitKernelBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := InitKernel(rng, tensor.Cube(3), 4)
	limit := 1 / math.Sqrt(float64(4*27))
	for _, v := range k.Data {
		if v < -limit || v > limit {
			t.Fatalf("kernel value %v outside ±%v", v, limit)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("InitKernel with fan-in 0 did not panic")
		}
	}()
	InitKernel(rng, tensor.Cube(3), 0)
}
