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

// anisoGraph builds the width-8 exemplar net — 5×5×1 and 3³ kernels
// alternating, widths 8/8/8/1, logistic transfers, fully connected layer to
// layer — on a 49×49×15 patch, every conv edge direct and counted in c.
func anisoGraph(c *conv.Counters, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	cur := []*graph.Node{g.AddNode("in", tensor.S3(49, 49, 15))}
	for l, k := range []tensor.Shape{tensor.S3(5, 5, 1), tensor.Cube(3), tensor.S3(5, 5, 1), tensor.Cube(3)} {
		next := make([]*graph.Node, []int{8, 8, 8, 1}[l])
		for j := range next {
			sum := g.AddNode(fmt.Sprintf("L%d/conv/%d", l, j), cur[0].Shape.ValidConv(k, tensor.Dense()))
			for _, src := range cur {
				ker := graph.InitKernel(rng, k, len(cur))
				g.Connect(src, sum, graph.NewConvOp(src.Shape, ker, tensor.Dense(), conv.Direct, false, c))
			}
			next[j] = g.AddNode(fmt.Sprintf("L%d/t/%d", l, j), sum.Shape)
			g.Connect(sum, next[j], graph.NewTransferOp(ops.Logistic{}, 0))
		}
		cur = next
	}
	return g
}

// TestPairedDirectGroups: on the width-8 aniso net Compile pairs every
// layer's sibling direct sums — forward, nodes with the same sources;
// backward, nodes with the same targets — and leaves the width-1 output
// sum alone. One training round then counts the per-node sums' direct
// multiply-adds (each pass n′ times the nonzero taps, each update n′ times
// the kernel volume), both nodes of every pair included, and leaves every
// output, loss and updated kernel bit for bit where the serial reference,
// which sums node by node, puts them.
func TestPairedDirectGroups(t *testing.T) {
	var c conv.Counters
	g, ref := anisoGraph(&c, 7), anisoGraph(nil, 7)
	en, err := NewEngine(g, Config{Workers: 2, Eta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	pairs := func(of []*group) (n int) {
		seen := map[*group]bool{}
		for _, gr := range of {
			if gr != nil && !seen[gr] && len(gr.parts) == 2 {
				seen[gr] = true
				n++
			}
		}
		return n
	}
	if f, b := pairs(en.p.fwdGroup), pairs(en.p.bwdGroup); f != 12 || b != 12 {
		t.Fatalf("%d forward and %d backward pairs, want 12 and 12", f, b)
	}

	var want int64
	for _, e := range g.Edges {
		op, ok := e.Op.(*graph.ConvOp)
		if !ok {
			continue
		}
		n, nnz := int64(op.Tr.OutShape().Volume()), int64(conv.Nnz(op.Kernel))
		want += n*nnz + n*int64(op.Kernel.S.Volume()) // forward, update
		if !e.From.IsInput() {
			want += n * nnz // backward
		}
	}
	rng := rand.New(rand.NewSource(8))
	in := tensor.RandomUniform(rng, g.Inputs()[0].Shape, -1, 1)
	des := tensor.RandomUniform(rng, g.Outputs()[0].Shape, 0, 1)
	c.Reset()
	loss, err := en.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if err := en.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().DirectFlops; got != want {
		t.Errorf("direct multiply-adds %d, per-node sum %d", got, want)
	}

	serial := &net.Network{G: ref, Inputs: ref.Inputs(), Outputs: ref.Outputs()}
	wantLoss, err := serial.RoundSerial([]*tensor.Tensor{in}, []*tensor.Tensor{des}, ops.SquaredLoss{}, graph.UpdateOpts{Eta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Errorf("loss %v, serial %v", loss, wantLoss)
	}
	for i, e := range g.Edges {
		op, ok := e.Op.(*graph.ConvOp)
		if !ok {
			continue
		}
		for j, w := range op.Kernel.Data {
			if v := ref.Edges[i].Op.(*graph.ConvOp).Kernel.Data[j]; math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("edge %s tap %d: %v after the update, serial %v", e, j, w, v)
			}
		}
	}
}

// TestPaddedImagesOutliveRound: a training round's padded backward images
// are held by the round and by each direct in-edge's update, which reads
// them after the round's Wait; once the updates have run, every hold is
// dropped and every node's images are back in scratch.
func TestPaddedImagesOutliveRound(t *testing.T) {
	g := anisoGraph(nil, 9)
	en, err := NewEngine(g, Config{Workers: 2, Eta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	rng := rand.New(rand.NewSource(10))
	in := tensor.RandomUniform(rng, g.Inputs()[0].Shape, -1, 1)
	des := tensor.RandomUniform(rng, g.Outputs()[0].Shape, 0, 1)
	tp := en.StartPipeline()
	pr, err := tp.Submit([]*tensor.Tensor{in}, []*tensor.Tensor{des})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := en.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := range pr.rs.nodes {
		if n := pr.rs.nodes[i].padRefs.Load(); n != 0 {
			t.Errorf("node %s: %d holds on its padded images after the updates ran", g.Nodes[i].Name, n)
		}
	}
}

// TestPairPriority: a pair's tasks run at the higher of its two nodes'
// priorities, whichever node of the pair holds it.
func TestPairPriority(t *testing.T) {
	g := anisoGraph(nil, 11)
	en, err := NewEngine(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	for _, gr := range en.p.fwdGroup {
		if gr == nil || len(gr.parts) != 2 {
			continue
		}
		a, b := gr.parts[0].n, gr.parts[1].n
		for _, p := range [][4]int64{{5, 9, 3, 7}, {9, 5, 7, 3}} {
			a.FwdPrio, b.FwdPrio, a.BwdPrio, b.BwdPrio = p[0], p[1], p[2], p[3]
			if gr.prio(false) != 9 || gr.prio(true) != 7 {
				t.Fatalf("pair %s+%s at %v: priorities %d forward, %d backward, want 9 and 7", a.Name, b.Name, p, gr.prio(false), gr.prio(true))
			}
		}
		return
	}
	t.Fatal("no forward pair")
}
