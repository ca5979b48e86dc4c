package znn

import (
	"fmt"
	"math/rand"

	"znn/internal/graph"
	"znn/internal/ops"
	"znn/internal/train"
)

// GraphBuilder constructs computation graphs with arbitrary topology —
// multi-scale paths, convergent summation nodes, heterogeneous kernels —
// the generality Section XI highlights over layer-locked GPU frameworks.
type GraphBuilder struct {
	g    *graph.Graph
	rng  *rand.Rand
	cfg  Config
	errs []error
}

// NodeRef names a node created by the builder.
type NodeRef struct {
	n *graph.Node
}

// Shape returns the node's image shape.
func (r NodeRef) Shape() Shape { return r.n.Shape }

// Name returns the node's name.
func (r NodeRef) Name() string { return r.n.Name }

// NewGraphBuilder starts an empty graph. cfg supplies convolution mode,
// memoization, seed and (at Build time) precision, planning, scheduler and
// training settings, all as NewNetwork applies them — conv layers are the
// groups of edges with one geometry, priced at their real fan-in and
// fan-out. The layer-geometry fields of cfg are ignored.
func NewGraphBuilder(cfg Config) *GraphBuilder {
	return &GraphBuilder{
		g:   graph.New(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
}

func (b *GraphBuilder) fail(format string, args ...any) NodeRef {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return NodeRef{}
}

// Input adds an input node with the given image shape.
func (b *GraphBuilder) Input(name string, s Shape) NodeRef {
	if !s.Valid() {
		return b.fail("znn: invalid input shape %v", s)
	}
	return NodeRef{n: b.g.AddNode(name, s)}
}

// Conv adds a node receiving a (possibly sparse) convolution from each
// source node, summing when multiple sources are given. Kernels are
// freshly initialized.
func (b *GraphBuilder) Conv(name string, kernel Shape, sp Sparsity, from ...NodeRef) NodeRef {
	if len(from) == 0 {
		return b.fail("znn: Conv %q needs at least one source", name)
	}
	for _, f := range from {
		if f.n == nil {
			return b.fail("znn: Conv %q has an invalid source", name)
		}
	}
	out := from[0].n.Shape.ValidConv(kernel, sp)
	if !out.Valid() {
		return b.fail("znn: Conv %q: kernel %v (sparsity %v) does not fit %v",
			name, kernel, sp, from[0].n.Shape)
	}
	for _, f := range from {
		if got := f.n.Shape.ValidConv(kernel, sp); got != out {
			return b.fail("znn: Conv %q: source %s yields %v, want %v",
				name, f.n.Name, got, out)
		}
	}
	method, _, err := b.cfg.convMode()
	if err != nil {
		return b.fail("znn: Conv %q: %v", name, err)
	}
	v := b.g.AddNode(name, out)
	for _, f := range from {
		k := graph.InitKernel(b.rng, kernel, len(from))
		op := graph.NewConvOp(f.n.Shape, k, sp, method, b.cfg.Memoize, nil)
		b.g.Connect(f.n, v, op)
	}
	return NodeRef{n: v}
}

// Transfer adds a bias + nonlinearity node ("relu", "tanh", "logistic",
// "linear").
func (b *GraphBuilder) Transfer(name, fn string, from NodeRef) NodeRef {
	if from.n == nil {
		return b.fail("znn: Transfer %q has an invalid source", name)
	}
	f, err := ops.TransferByName(fn)
	if err != nil {
		return b.fail("znn: Transfer %q: %v", name, err)
	}
	v := b.g.AddNode(name, from.n.Shape)
	b.g.Connect(from.n, v, graph.NewTransferOp(f, 0))
	return NodeRef{n: v}
}

// MaxPool adds a non-overlapping max-pooling node.
func (b *GraphBuilder) MaxPool(name string, window Shape, from NodeRef) NodeRef {
	if from.n == nil {
		return b.fail("znn: MaxPool %q has an invalid source", name)
	}
	s := from.n.Shape
	if s.X%window.X != 0 || s.Y%window.Y != 0 || s.Z%window.Z != 0 {
		return b.fail("znn: MaxPool %q: %v not divisible by %v", name, s, window)
	}
	v := b.g.AddNode(name, s.Div(window))
	b.g.Connect(from.n, v, graph.NewMaxPoolOp(window))
	return NodeRef{n: v}
}

// MaxFilter adds a sliding-window maximum node with the given sparsity.
func (b *GraphBuilder) MaxFilter(name string, window Shape, sp Sparsity, from NodeRef) NodeRef {
	if from.n == nil {
		return b.fail("znn: MaxFilter %q has an invalid source", name)
	}
	out := from.n.Shape.ValidConv(window, sp)
	if !out.Valid() {
		return b.fail("znn: MaxFilter %q: window %v (sparsity %v) does not fit %v",
			name, window, sp, from.n.Shape)
	}
	v := b.g.AddNode(name, out)
	b.g.Connect(from.n, v, graph.NewMaxFilterOp(window, sp))
	return NodeRef{n: v}
}

// Dropout adds a dropout node with the given keep probability.
func (b *GraphBuilder) Dropout(name string, keep float64, from NodeRef) NodeRef {
	if from.n == nil {
		return b.fail("znn: Dropout %q has an invalid source", name)
	}
	if keep <= 0 || keep > 1 {
		return b.fail("znn: Dropout %q: keep %v outside (0,1]", name, keep)
	}
	v := b.g.AddNode(name, from.n.Shape)
	b.g.Connect(from.n, v, graph.NewDropoutOp(keep, b.rng.Int63()))
	return NodeRef{n: v}
}

// Model is a trainable arbitrary-topology network built by GraphBuilder.
type Model struct {
	g  *graph.Graph
	en *train.Engine
}

// Build compiles the graph into a trainable model, settling every conv
// edge's method as the Config given to NewGraphBuilder asks.
func (b *GraphBuilder) Build() (*Model, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	en, _, err := b.cfg.engine(b.g, 0)
	if err != nil {
		return nil, err
	}
	return &Model{g: b.g, en: en}, nil
}

// Train runs one gradient iteration; inputs and desired follow the order
// input/output nodes were created in.
func (m *Model) Train(inputs, desired []*Tensor) (float64, error) {
	return m.en.Round(inputs, desired)
}

// Infer runs a forward-only inference round; like Network.Infer it is safe
// for concurrent use, with rounds in flight simultaneously.
func (m *Model) Infer(inputs ...*Tensor) ([]*Tensor, error) {
	outs, err := m.en.Infer([][]*Tensor{inputs})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// NodeImage returns the forward image of a named node after the last
// successful Train (Infer rounds keep their images private), for
// inspecting intermediate representations.
func (m *Model) NodeImage(name string) *Tensor { return m.en.NodeForward(name) }

// Close applies pending updates and stops the workers.
func (m *Model) Close() error { return m.en.Close() }
