package znn

import (
	"math/rand"
	"testing"

	"znn/internal/graph"
	"znn/internal/tensor"
	"znn/internal/train"
)

// TestDirectDeterminism: on all-direct width-8 nets every node sums its
// direct edges in one FMA chain in edge order, so nothing depends on which
// worker finishes first. Training is bitwise reproducible at 1, 2 and 4
// workers, strict training equals pipelined training bitwise, and two tiled
// passes are bitwise equal — on the aniso GraphBuilder net at a smaller
// patch and on a net.Build spec net.
func TestDirectDeterminism(t *testing.T) {
	const rounds = 3
	rng := rand.New(rand.NewSource(31))
	samples := func(in, out Shape) (ins, des [][]*Tensor) {
		for range rounds {
			ins = append(ins, []*Tensor{tensor.RandomUniform(rng, in, -1, 1)})
			des = append(des, []*Tensor{tensor.RandomUniform(rng, out, 0, 1)})
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

	// The aniso GraphBuilder net.
	patch := S3(25, 25, 9)
	out := patch
	for _, k := range anisoKernels {
		out = out.ValidConv(k, Dense())
	}
	ins, des := samples(patch, out)
	aniso := func(workers, ahead int) trained {
		m, err := anisoModelAt(Config{Conv: ForceDirect, Workers: workers, Seed: 1, Eta: 0.1}, patch)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return run(m.en, ins, des, ahead, func() []float64 { return graphParams(m.g) })
	}
	want := aniso(1, 0)
	for _, w := range []int{2, 4} {
		same("aniso workers "+string(rune('0'+w)), want, aniso(w, 0))
	}
	same("aniso pipelined", want, aniso(2, 1))

	// A net.Build spec net.
	cfg := func(workers int) Config {
		return Config{Width: 8, OutputPatch: 3, Conv: ForceDirect, Workers: workers, Seed: 2, Eta: 0.1}
	}
	const spec = "C3-Ttanh-C3-Tlogistic-C2-Tlinear"
	spec0, err := NewNetwork(spec, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	spec0.Close()
	ins, des = samples(spec0.InputShape(), spec0.OutputShape())
	specNet := func(workers, ahead int) trained {
		n, err := NewNetwork(spec, cfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		return run(n.en, ins, des, ahead, n.Params)
	}
	want = specNet(1, 0)
	for _, w := range []int{2, 4} {
		same("spec workers "+string(rune('0'+w)), want, specNet(w, 0))
	}
	same("spec pipelined", want, specNet(2, 1))

	// Two tiled passes of the spec net over a volume.
	n, err := NewNetwork(spec, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	vol := tensor.RandomUniform(rng, Cube(17), -1, 1)
	var passes [2][]*Tensor
	for i := range passes {
		if passes[i], _, err = n.InferVolume(vol, TileOptions{BlockOut: 4, K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if !passes[0][0].Equal(passes[1][0]) {
		t.Errorf("two tiled passes differ (max |Δ| = %g)", passes[0][0].MaxAbsDiff(passes[1][0]))
	}
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
