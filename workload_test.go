package znn

import (
	"fmt"
	"reflect"
	"testing"

	"znn/internal/conv"
	"znn/internal/data"
	"znn/internal/graph"
)

// The gated benchmark's networks, rebuilt here through the public API so
// their per-layer method choices are pinned in tier-1 and the aniso one can
// be profiled under go test.
const (
	fft7Spec  = "C7-Trelu-C7-Trelu-C7-Tlogistic"
	serveSpec = "C5-Trelu-C3-Ttanh"
	cubeSpec  = "C5-Trelu-C5-Trelu-C3-Ttanh"
)

// anisoKernels are the SNIPPETS.md exemplar net's kernels: 5×5×1 and 3×3×3
// alternating, on a 49×49×15 patch.
var anisoKernels = []Shape{S3(5, 5, 1), S3(3, 3, 3), S3(5, 5, 1), S3(3, 3, 3)}

// anisoModel builds the exemplar net on a GraphBuilder: widths 8/8/8/1,
// logistic transfers, fully connected layer to layer.
func anisoModel(cfg Config) (*Model, error) { return anisoModelAt(cfg, S3(49, 49, 15)) }

// anisoModelAt builds the exemplar net on an input patch of another size.
func anisoModelAt(cfg Config, patch Shape) (*Model, error) {
	widths := []int{8, 8, 8, 1}
	b := NewGraphBuilder(cfg)
	cur := []NodeRef{b.Input("in", patch)}
	for l, k := range anisoKernels {
		next := make([]NodeRef, widths[l])
		for j := range next {
			sum := b.Conv(fmt.Sprintf("L%d/conv/%d", l, j), k, Dense(), cur...)
			next[j] = b.Transfer(fmt.Sprintf("L%d/t/%d", l, j), "logistic", sum)
		}
		cur = next
	}
	return b.Build()
}

// edgeMethods lists the method of every conv edge of g, in edge order.
func edgeMethods(g *graph.Graph) []conv.Method {
	var out []conv.Method
	for _, e := range g.Edges {
		if op, ok := e.Op.(*graph.ConvOp); ok {
			out = append(out, op.Tr.Method())
		}
	}
	return out
}

// TestWorkloadMethodsPinned pins the per-layer methods the four benchmark
// workloads run, so a change to how methods are chosen cannot silently move
// a workload onto another code path.
func TestWorkloadMethodsPinned(t *testing.T) {
	methods := func(spec string, cfg Config) []string {
		t.Helper()
		nw, err := NewNetwork(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		return nw.LayerMethods()
	}
	all := func(m string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = m
		}
		return out
	}

	fft7 := Config{Width: 8, OutputPatch: 12, Memoize: true, Workers: 2, Seed: 1}
	fft7.Conv = ForceFFT
	if got := methods(fft7Spec, fft7); !reflect.DeepEqual(got, all("fft", 3)) {
		t.Errorf("fft7 ForceFFT: %v", got)
	}
	fft7.Conv = Autotune
	if got := methods(fft7Spec, fft7); !reflect.DeepEqual(got, all("direct", 3)) {
		t.Errorf("fft7 Autotune: %v", got)
	}
	if got := methods(serveSpec, Config{Width: 8, OutputPatch: 16, Workers: 2, Seed: 1}); !reflect.DeepEqual(got, all("direct", 2)) {
		t.Errorf("serve: %v", got)
	}

	m, err := anisoModel(Config{Conv: Autotune, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	em := edgeMethods(m.g)
	if len(em) != 144 {
		t.Fatalf("aniso: %d conv edges, want 144", len(em))
	}
	for i, mth := range em {
		if mth != conv.Direct {
			t.Fatalf("aniso: edge %d runs %v", i, mth)
		}
	}

	nw, err := NewNetwork(cubeSpec, Config{
		Width: 4, OutputPatch: 16, Planned: true, Float32: true,
		MemBudget: 64 << 20, Workers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	bp, err := nw.PlanBlocks(Cube(106), TileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bp.K != 1 || bp.BlockOut != Cube(48) || bp.BlockIn != Cube(58) {
		t.Errorf("cube block plan: K=%d out=%v in=%v, want K=1 out 48³ in 58³", bp.K, bp.BlockOut, bp.BlockIn)
	}
	var got []string
	for _, a := range bp.Layers {
		s := a.Method.String()
		if a.Method == conv.FFT {
			s += " " + a.Precision.String()
		}
		got = append(got, s)
	}
	if want := []string{"direct", "fft f32", "direct"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cube block plan methods: %v, want %v", got, want)
	}
}

// BenchmarkWorkloadTrainAnisoAuto mirrors train_aniso_auto: strict training
// of the 49×49×15 exemplar GraphBuilder net, widths 8/8/8/1, under
// Autotune, two workers. One op is one update. Profile it with
//
//	go test -run '^$' -bench WorkloadTrainAnisoAuto -benchtime 50x -cpuprofile cpu.out .
func BenchmarkWorkloadTrainAnisoAuto(b *testing.B) {
	m, err := anisoModel(Config{Conv: Autotune, Workers: 2, Seed: 1, Eta: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	in := S3(49, 49, 15)
	out := in
	for _, k := range anisoKernels {
		out = out.ValidConv(k, Dense())
	}
	p := data.NewBoundaryProvider(in, out, 1)
	p.SetCentered(true)
	samples := make([]data.Sample, 4)
	for i := range samples {
		samples[i] = p.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		if _, err := m.Train([]*Tensor{s.Input}, []*Tensor{s.Desired[0]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectNodeGroup times one width-8 direct 3³ layer over 45×45×15
// sources through the engine: a training update of
// in → 8 linear transfers → 8 sums of 8 direct edges each (the outputs),
// so one op is the layer's forward node sums, the sources' backward node
// sums over their 8 out-edges and the 64 kernel gradients, two workers.
func BenchmarkDirectNodeGroup(b *testing.B) {
	const width = 8
	in := S3(45, 45, 15)
	bld := NewGraphBuilder(Config{Conv: ForceDirect, Workers: 2, Seed: 1, Eta: 1e-4})
	src := bld.Input("in", in)
	srcs := make([]NodeRef, width)
	for i := range srcs {
		srcs[i] = bld.Transfer(fmt.Sprintf("src/%d", i), "linear", src)
	}
	for j := 0; j < width; j++ {
		bld.Conv(fmt.Sprintf("sum/%d", j), Cube(3), Dense(), srcs...)
	}
	m, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	out := in.ValidConv(Cube(3), Dense())
	p := data.NewBoundaryProvider(in, out, 1)
	s := p.Next()
	desired := make([]*Tensor, width)
	for i := range desired {
		desired[i] = s.Desired[0]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train([]*Tensor{s.Input}, desired); err != nil {
			b.Fatal(err)
		}
	}
}
