package znn

import (
	"fmt"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/tensor"
	"znn/internal/train"
)

// TestDirectDeterminism: every node sums its groups — direct edges in one
// FMA chain, FFT edges in one multiply-accumulated spectrum, each in edge
// order, and a node's groups in group order — so nothing depends on which
// worker finishes first. Training is bitwise reproducible at 1, 2 and 4
// workers, strict training equals pipelined training bitwise, and two
// inference passes are bitwise equal — on the all-direct aniso GraphBuilder
// net at a smaller patch and a net.Build spec net, on the all-FFT
// memoized width-8 train_fft7 spec at a small patch in float64 and
// float32, and on a GraphBuilder net where a direct group and an FFT group
// meet at one node.
func TestDirectDeterminism(t *testing.T) {
	const rounds = 3
	rng := rand.New(rand.NewSource(31))
	samples := func(in []Shape, out []Shape) (ins, des [][]*Tensor) {
		for range rounds {
			var x, y []*Tensor
			for _, s := range in {
				x = append(x, tensor.RandomUniform(rng, s, -1, 1))
			}
			for _, s := range out {
				y = append(y, tensor.RandomUniform(rng, s, 0, 1))
			}
			ins, des = append(ins, x), append(des, y)
		}
		return ins, des
	}
	type trained struct{ losses, params []float64 }
	// run trains the rounds on en, keeping ahead rounds submitted before
	// waiting the oldest (0 is strict training), and reads params after.
	run := func(en *train.Engine, ins, des [][]*Tensor, ahead int, params func() []float64) trained {
		var tr trained
		tp := en.StartPipeline()
		var pending []*train.PendingRound
		for i := range ins {
			pr, err := tp.Submit(ins[i], des[i])
			if err != nil {
				t.Fatal(err)
			}
			for pending = append(pending, pr); len(pending) > ahead; pending = pending[1:] {
				loss, err := pending[0].Wait()
				if err != nil {
					t.Fatal(err)
				}
				tr.losses = append(tr.losses, loss)
			}
		}
		for _, pr := range pending {
			loss, err := pr.Wait()
			if err != nil {
				t.Fatal(err)
			}
			tr.losses = append(tr.losses, loss)
		}
		if err := tp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := en.Drain(); err != nil {
			t.Fatal(err)
		}
		tr.params = params()
		return tr
	}
	same := func(label string, want, got trained) {
		t.Helper()
		for i := range want.losses {
			if got.losses[i] != want.losses[i] {
				t.Errorf("%s: round %d loss %v, want %v", label, i, got.losses[i], want.losses[i])
			}
		}
		for i := range want.params {
			if got.params[i] != want.params[i] {
				t.Fatalf("%s: parameter %d is %v, want %v", label, i, got.params[i], want.params[i])
			}
		}
	}
	// sweep trains a fresh net at 1, 2 and 4 workers, strict, and at 2
	// workers one round ahead.
	sweep := func(label string, train func(workers, ahead int) trained) {
		want := train(1, 0)
		for _, w := range []int{2, 4} {
			same(fmt.Sprintf("%s workers %d", label, w), want, train(w, 0))
		}
		same(label+" pipelined", want, train(2, 1))
	}
	// equalPasses runs two inference passes and compares them bitwise.
	equalPasses := func(label string, pass func() []*Tensor) {
		a, b := pass(), pass()
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Errorf("%s: two passes differ at output %d (max |Δ| = %g)", label, i, a[i].MaxAbsDiff(b[i]))
			}
		}
	}

	// The aniso GraphBuilder net.
	patch := S3(25, 25, 9)
	out := patch
	for _, k := range anisoKernels {
		out = out.ValidConv(k, Dense())
	}
	ins, des := samples([]Shape{patch}, []Shape{out})
	sweep("aniso", func(workers, ahead int) trained {
		m, err := anisoModelAt(Config{Conv: ForceDirect, Workers: workers, Seed: 1, Eta: 0.1}, patch)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return run(m.en, ins, des, ahead, func() []float64 { return graphParams(m.g) })
	})

	// net.Build spec nets: all direct; the train_fft7 spec, all FFT and
	// memoized, in float64 and float32. Each then runs two tiled passes.
	for _, tc := range []struct {
		label, spec string
		cfg         Config
		vol         Shape
		rounds      int
	}{
		{"spec", "C3-Ttanh-C3-Tlogistic-C2-Tlinear", Config{Width: 8, OutputPatch: 3, Conv: ForceDirect, Seed: 2, Eta: 0.1}, Cube(17), rounds},
		// Two rounds and two blocks: the FFT nets are dear under the race
		// detector, which CI's stress step runs this test under 30 times.
		{"fft7", "C7-Trelu-C7-Trelu-C7-Tlogistic", Config{Width: 8, OutputPatch: 1, Conv: ForceFFT, Memoize: true, Seed: 3, Eta: 0.1}, S3(22, 22, 26), 2},
		{"fft7/f32", "C7-Trelu-C7-Trelu-C7-Tlogistic", Config{Width: 8, OutputPatch: 1, Conv: ForceFFT, Memoize: true, Float32: true, Seed: 3, Eta: 0.1}, S3(22, 22, 26), 2},
	} {
		open := func(workers int) *Network {
			cfg := tc.cfg
			cfg.Workers = workers
			n, err := NewNetwork(tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		n := open(2)
		ins, des := samples([]Shape{n.InputShape()}, []Shape{n.OutputShape()})
		ins, des = ins[:tc.rounds], des[:tc.rounds]
		sweep(tc.label, func(workers, ahead int) trained {
			n := open(workers)
			defer n.Close()
			return run(n.en, ins, des, ahead, n.Params)
		})
		vol := tensor.RandomUniform(rng, tc.vol, -1, 1)
		equalPasses(tc.label+" tiled", func() []*Tensor {
			outs, _, err := n.InferVolume(vol, TileOptions{BlockOut: 4, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			return outs
		})
		n.Close()
	}

	// A GraphBuilder net where a direct group and an FFT group meet: each
	// t/j feeds two 1³ convolutions, which the plan runs direct, and four
	// 7³ ones, which it runs FFT, so its backward sum adds one group of each.
	mixedIn := Cube(24)
	mixed := func(workers int) *Model {
		b := NewGraphBuilder(Config{Planned: true, Memoize: true, Workers: workers, Seed: 4, Eta: 0.1})
		in := b.Input("in", mixedIn)
		var ts []NodeRef
		for j := range 4 {
			ts = append(ts, b.Transfer(fmt.Sprintf("t/%d", j), "tanh", b.Conv(fmt.Sprintf("c/%d", j), Cube(3), Dense(), in)))
		}
		for j := range 4 {
			if j < 2 {
				b.Transfer(fmt.Sprintf("d/%d", j), "logistic", b.Conv(fmt.Sprintf("d/conv/%d", j), Cube(1), Dense(), ts...))
			}
			b.Transfer(fmt.Sprintf("f/%d", j), "logistic", b.Conv(fmt.Sprintf("f/conv/%d", j), Cube(7), Dense(), ts...))
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := mixed(2)
	methods := map[conv.Method]bool{}
	for _, e := range m.g.Nodes[2].Out { // t/0
		methods[e.Op.(*graph.ConvOp).Tr.Method()] = true
	}
	if !methods[conv.Direct] || !methods[conv.FFT] {
		t.Fatalf("t/0 out-edge methods %v, want a direct and an FFT group", methods)
	}
	var outShapes []Shape
	for _, o := range m.g.Outputs() {
		outShapes = append(outShapes, o.Shape)
	}
	ins, des = samples([]Shape{mixedIn}, outShapes)
	sweep("mixed", func(workers, ahead int) trained {
		m := mixed(workers)
		defer m.Close()
		return run(m.en, ins, des, ahead, func() []float64 { return graphParams(m.g) })
	})
	batch := [][]*Tensor{ins[0], ins[1]}
	equalPasses("mixed inference", func() []*Tensor {
		outs, err := m.en.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		return append(outs[0], outs[1]...)
	})
	m.Close()
}

// graphParams lists every kernel coefficient and transfer bias of g in
// edge order.
func graphParams(g *graph.Graph) []float64 {
	var p []float64
	for _, e := range g.Edges {
		switch op := e.Op.(type) {
		case *graph.ConvOp:
			p = append(p, op.Kernel.Data...)
		case *graph.TransferOp:
			p = append(p, op.Bias)
		}
	}
	return p
}
