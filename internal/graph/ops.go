package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"znn/internal/conv"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// FwdCtx carries per-round state into forward ops.
type FwdCtx struct {
	// Infer marks an inference round, which may run concurrently with
	// other inference rounds over the same ops; unset, the round is a
	// training round. Ops must not store per-round state (Jacobian inputs,
	// argmax maps, FFT memo slots) on an inference round — there is no
	// backward pass to consume it and a concurrent round would race on the
	// slot — and dropout is the identity there, masking only in training.
	Infer bool
}

// infer reports whether ctx marks an inference round (nil-safe).
func (ctx *FwdCtx) infer() bool { return ctx != nil && ctx.Infer }

// BwdCtx carries per-round state into backward ops.
type BwdCtx struct {
	// Owned hands the backward image to the op to overwrite: nothing else
	// reads it afterwards (a non-convolution edge is its target's only
	// in-edge), so the op may return it as its result.
	Owned bool
}

// UpdateOpts parameterizes gradient steps.
type UpdateOpts struct {
	Eta      float64 // learning rate η
	Momentum float64 // classical momentum coefficient (0 = plain SGD)
}

// Op is an image filtering operation on an edge. Ops are stateful within a
// training round (forward stores whatever its Jacobian needs) and must only
// be attached to a single edge. Forward and Backward of one op never run
// concurrently with each other (the task dependency graph orders them), but
// different ops run in parallel freely.
type Op interface {
	Kind() string
	// OutShape maps the input image shape to the output image shape.
	OutShape(in tensor.Shape) tensor.Shape
	// Forward applies the operation.
	Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor
	// Backward applies the transposed Jacobian to the backward image.
	Backward(grad *tensor.Tensor, ctx *BwdCtx) *tensor.Tensor
}

// Trainable is implemented by ops with parameters (convolution kernels,
// transfer-function biases).
type Trainable interface {
	Op
	// Update computes the parameter gradient from the edge's forward
	// input image and the backward image at the edge's target, and
	// applies the gradient step (Algorithm 3).
	Update(fwdIn, bwdOut *tensor.Tensor, opt UpdateOpts)
}

// ConvOp is a (possibly sparse) convolution edge holding its kernel.
type ConvOp struct {
	Kernel *tensor.Tensor
	Sp     tensor.Sparsity
	Tr     *conv.Transformer

	velocity *tensor.Tensor // momentum state
}

// NewConvOp builds a convolution op for the given input shape, kernel and
// sparsity, using the given method and memoization setting, at the default
// float64 precision (the engine's Config.Precision or plan retargets it at
// compile time).
func NewConvOp(in tensor.Shape, kernel *tensor.Tensor, sp tensor.Sparsity,
	method conv.Method, memoize bool, counters *conv.Counters) *ConvOp {
	return &ConvOp{
		Kernel: kernel,
		Sp:     sp,
		Tr:     conv.NewTransformer(in, kernel.S, sp, method, memoize, counters),
	}
}

// Kind returns "conv".
func (o *ConvOp) Kind() string { return "conv" }

// OutShape returns the valid convolution output shape.
func (o *ConvOp) OutShape(in tensor.Shape) tensor.Shape {
	return in.ValidConv(o.Kernel.S, o.Sp)
}

// Forward computes the valid sparse convolution.
func (o *ConvOp) Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor {
	return o.Tr.ForwardBatch([]*tensor.Tensor{in}, o.Kernel, ctx.infer())[0]
}

// Backward computes the full convolution with the reflected kernel.
func (o *ConvOp) Backward(grad *tensor.Tensor, _ *BwdCtx) *tensor.Tensor {
	return o.Tr.Backward(grad, o.Kernel, nil)
}

// Update computes the kernel gradient and applies the SGD step, then
// invalidates the cached kernel spectra.
func (o *ConvOp) Update(fwdIn, bwdOut *tensor.Tensor, opt UpdateOpts) {
	g := o.Tr.KernelGrad(fwdIn, bwdOut)
	if opt.Momentum != 0 {
		if o.velocity == nil {
			o.velocity = tensor.New(o.Kernel.S)
		}
		o.velocity.Scale(opt.Momentum)
		o.velocity.Axpy(-opt.Eta, g)
		o.Kernel.Add(o.velocity)
	} else {
		o.Kernel.Axpy(-opt.Eta, g)
	}
	o.Tr.InvalidateKernel()
}

// TransferOp applies a bias followed by a pointwise nonlinearity. The bias
// is the op's trainable parameter (Section II: "Transfer function adds a
// number called the bias to each voxel ... then applies a nonlinear
// function").
type TransferOp struct {
	F    ops.Transfer
	Bias float64

	fwdOut   *tensor.Tensor // forward output, needed by the Jacobian
	biasGrad float64        // Σ voxels of the backward output (Section III-B)
	velocity float64
}

// NewTransferOp builds a transfer op with the given nonlinearity and
// initial bias.
func NewTransferOp(f ops.Transfer, bias float64) *TransferOp {
	return &TransferOp{F: f, Bias: bias}
}

// Kind returns "transfer".
func (o *TransferOp) Kind() string { return "transfer" }

// OutShape returns the unchanged input shape.
func (o *TransferOp) OutShape(in tensor.Shape) tensor.Shape { return in }

// Forward computes f(in + bias) and stores the output for the Jacobian
// (inference rounds skip the store — no Jacobian will run, and concurrent
// rounds would race on the slot).
func (o *TransferOp) Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor {
	out := ops.TransferForward(o.F, in, o.Bias)
	if !ctx.infer() {
		o.fwdOut = out
	}
	return out
}

// Backward multiplies the backward image by f′ evaluated at the stored
// forward output — in place when ctx hands it over — and records the bias
// gradient in the same pass.
func (o *TransferOp) Backward(grad *tensor.Tensor, ctx *BwdCtx) *tensor.Tensor {
	if o.fwdOut == nil {
		panic("graph: transfer backward before forward")
	}
	if o.fwdOut.S != grad.S {
		panic(fmt.Sprintf("graph: transfer backward shape mismatch %v vs %v", o.fwdOut.S, grad.S))
	}
	out := grad
	if ctx == nil || !ctx.Owned {
		out = tensor.New(grad.S)
	}
	o.biasGrad = o.F.Backward(out.Data, o.fwdOut.Data, grad.Data)
	return out
}

// Update applies the bias gradient step.
func (o *TransferOp) Update(_, _ *tensor.Tensor, opt UpdateOpts) {
	if opt.Momentum != 0 {
		o.velocity = opt.Momentum*o.velocity - opt.Eta*o.biasGrad
		o.Bias += o.velocity
	} else {
		o.Bias -= opt.Eta * o.biasGrad
	}
}

// MaxPoolOp is a non-overlapping max-pooling edge.
type MaxPoolOp struct {
	Window tensor.Shape

	inShape tensor.Shape
	argmax  []int32
}

// NewMaxPoolOp builds a pooling op with the given window.
func NewMaxPoolOp(window tensor.Shape) *MaxPoolOp { return &MaxPoolOp{Window: window} }

// Kind returns "maxpool".
func (o *MaxPoolOp) Kind() string { return "maxpool" }

// OutShape returns in / window (panics when not divisible).
func (o *MaxPoolOp) OutShape(in tensor.Shape) tensor.Shape { return in.Div(o.Window) }

// Forward pools and stores the argmax map (skipped on inference rounds).
func (o *MaxPoolOp) Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor {
	out, am := ops.MaxPoolForward(in, o.Window)
	if !ctx.infer() {
		o.inShape = in.S
		o.argmax = am
	}
	return out
}

// Backward scatters the backward image to the forward maxima.
func (o *MaxPoolOp) Backward(grad *tensor.Tensor, _ *BwdCtx) *tensor.Tensor {
	if o.argmax == nil {
		panic("graph: maxpool backward before forward")
	}
	return ops.MaxPoolBackward(grad, o.argmax, o.inShape)
}

// MaxFilterOp is a sliding-window maximum edge, optionally sparse: the
// window taps are spaced by the sparsity, mirroring sparse convolution so
// max-filtering ConvNets can run at any dilation (Fig. 2).
type MaxFilterOp struct {
	Window tensor.Shape
	Sp     tensor.Sparsity

	inShape tensor.Shape
	argmax  []int32
}

// NewMaxFilterOp builds a max-filtering op. It always runs the monotonic
// deque (O(1) amortized per voxel); the paper's O(log k) heap stays in
// package ops as the Table I reference.
func NewMaxFilterOp(window tensor.Shape, sp tensor.Sparsity) *MaxFilterOp {
	return &MaxFilterOp{Window: window, Sp: sp}
}

// Kind returns "maxfilter".
func (o *MaxFilterOp) Kind() string { return "maxfilter" }

// OutShape returns in − s(k−1), the same contraction as a valid sparse
// convolution.
func (o *MaxFilterOp) OutShape(in tensor.Shape) tensor.Shape {
	return in.ValidConv(o.Window, o.Sp)
}

// Forward filters and stores the argmax map (skipped on inference rounds).
func (o *MaxFilterOp) Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor {
	out, am := ops.MaxFilterForward(in, o.Window, o.Sp, ops.FilterDeque, nil)
	if !ctx.infer() {
		o.inShape = in.S
		o.argmax = am
	}
	return out
}

// Backward accumulates the backward image onto the forward maxima.
func (o *MaxFilterOp) Backward(grad *tensor.Tensor, _ *BwdCtx) *tensor.Tensor {
	if o.argmax == nil {
		panic("graph: maxfilter backward before forward")
	}
	return ops.MaxFilterBackward(grad, o.argmax, o.inShape)
}

// DropoutOp is the dropout extension as an edge operation. The round kind
// decides what it does: a training round masks (forward and backward), an
// inference round applies the identity.
type DropoutOp struct {
	D *ops.Dropout
}

// NewDropoutOp builds a dropout op with the given keep probability and
// deterministic seed.
func NewDropoutOp(keep float64, seed int64) *DropoutOp {
	return &DropoutOp{D: ops.NewDropout(keep, seed)}
}

// Kind returns "dropout".
func (o *DropoutOp) Kind() string { return "dropout" }

// OutShape returns the unchanged input shape.
func (o *DropoutOp) OutShape(in tensor.Shape) tensor.Shape { return in }

// Forward applies a fresh dropout mask, or the identity on an inference
// round (whose concurrent rounds must not share mask state).
func (o *DropoutOp) Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor {
	if ctx.infer() {
		return o.D.InferenceForward(in)
	}
	return o.D.Forward(in)
}

// Backward applies the mask of the training round's forward.
func (o *DropoutOp) Backward(grad *tensor.Tensor, _ *BwdCtx) *tensor.Tensor {
	return o.D.Backward(grad)
}

// ConvGeom returns the layer geometry of conv edge e as plans key it: f is
// the fan-in of e's target node, f′ the fan-out of its source node. Density
// is left unset. e.Op must be a *ConvOp.
func ConvGeom(e *Edge) conv.LayerGeom {
	op := e.Op.(*ConvOp)
	return conv.LayerGeom{
		In:     op.Tr.InShape(),
		Kernel: op.Kernel.S,
		Sp:     op.Sp,
		F:      len(e.To.In),
		FPrime: len(e.From.Out),
	}
}

// LayerGeoms returns the planner's view of g: its conv edges grouped by
// layer geometry in edge order, each group with the mean kernel density of
// its edges and listed once per f·f′ edges — once per fully connected layer
// it holds — so a plan's byte estimate charges every layer. A plan assigns
// all edges of one geometry the same method.
func LayerGeoms(g *Graph) []conv.LayerGeom {
	var geoms []conv.LayerGeom
	var edges []int
	idx := map[conv.LayerGeom]int{}
	for _, e := range g.Edges {
		op, ok := e.Op.(*ConvOp)
		if !ok {
			continue
		}
		geom := ConvGeom(e)
		i, seen := idx[geom]
		if !seen {
			i = len(geoms)
			idx[geom] = i
			geoms = append(geoms, geom)
			edges = append(edges, 0)
		}
		edges[i]++
		geoms[i].Density += conv.Density(op.Kernel)
	}
	var out []conv.LayerGeom
	for i, geom := range geoms {
		geom.Density /= float64(edges[i])
		for range max(1, edges[i]/(geom.F*geom.FPrime)) {
			out = append(out, geom)
		}
	}
	return out
}

// SumParts partitions edges — a node's in-edges, or its out-edges for the
// node's backward sum — into the parts that sum adds, in order of each
// part's first edge. Convolution edges whose operands share shapes form one
// part, summed by one node-level kernel: direct edges of equal input and
// output shapes (conv.SumForward, conv.SumBackward) and FFT edges that are
// SpectralCompatible (conv.SpectralForward, conv.SpectralBackward). Every
// other edge is a part of its own.
func SumParts(edges []*Edge) [][]*Edge {
	var parts [][]*Edge
	for _, e := range edges {
		i := slices.IndexFunc(parts, func(p []*Edge) bool { return sameSum(p[0], e) })
		if i < 0 {
			parts = append(parts, []*Edge{e})
		} else {
			parts[i] = append(parts[i], e)
		}
	}
	return parts
}

// sameSum reports whether edges a and b belong to one part of a node sum.
func sameSum(a, b *Edge) bool {
	x, ok := a.Op.(*ConvOp)
	y, ok2 := b.Op.(*ConvOp)
	switch {
	case !ok || !ok2:
		return false
	case x.Tr.Method().IsFFT():
		return x.Tr.SpectralCompatible(y.Tr)
	default:
		return y.Tr.Method() == conv.Direct && x.Tr.InShape() == y.Tr.InShape() && x.Tr.OutShape() == y.Tr.OutShape()
	}
}

// InitKernel returns a kernel initialized with the scaled-uniform scheme
// (±1/√(fan-in·k³)), the conventional initialization for ConvNet training.
func InitKernel(rng *rand.Rand, k tensor.Shape, fanIn int) *tensor.Tensor {
	if fanIn < 1 {
		panic(fmt.Sprintf("graph: invalid fan-in %d", fanIn))
	}
	limit := 1.0 / math.Sqrt(float64(fanIn*k.Volume()))
	return tensor.RandomUniform(rng, k, -limit, limit)
}
