package graph

import (
	"fmt"
	"math"
	"math/rand"

	"znn/internal/conv"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// FwdCtx carries per-round shared state into forward ops: the spectrum
// cache of the source node, so FFT edges reading the same image share one
// transform (Section IV).
type FwdCtx struct {
	Spectra *conv.SpectrumCache
	// Infer marks a forward-only round that may run concurrently with
	// other forward-only rounds over the same ops. Ops must not store
	// per-round state (Jacobian inputs, argmax maps, FFT memo slots) —
	// there is no backward pass to consume it and a concurrent round
	// would race on the slot — and dropout applies its inference-time
	// identity regardless of the shared Train toggle.
	Infer bool
}

// infer reports whether ctx marks an inference round (nil-safe).
func (ctx *FwdCtx) infer() bool { return ctx != nil && ctx.Infer }

// BwdCtx carries per-round shared state into backward ops: the spectrum
// cache of the backward image at the edge's target node.
type BwdCtx struct {
	Spectra *conv.SpectrumCache
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

// ForwardBatch applies op to every volume of one round's sweep: a
// convolution edge runs its batched sweep (one kernel-spectrum fetch feeding
// a pointwise product per volume), any other op is applied per volume.
func ForwardBatch(op Op, ins []*tensor.Tensor, ctx *FwdCtx) []*tensor.Tensor {
	if c, ok := op.(*ConvOp); ok {
		return c.forwardBatch(ins, ctx)
	}
	outs := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		outs[i] = op.Forward(in, ctx)
	}
	return outs
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
// float64 precision.
func NewConvOp(in tensor.Shape, kernel *tensor.Tensor, sp tensor.Sparsity,
	method conv.Method, memoize bool, counters *conv.Counters) *ConvOp {
	return NewConvOpPrec(in, kernel, sp, method, conv.PrecF64, memoize, counters)
}

// NewConvOpPrec is NewConvOp with an explicit spectral precision, so graphs
// built for the float32 path execute at that precision even outside a
// train.Engine (the engine's Config.Precision remains authoritative when
// one compiles the graph).
func NewConvOpPrec(in tensor.Shape, kernel *tensor.Tensor, sp tensor.Sparsity,
	method conv.Method, prec conv.Precision, memoize bool, counters *conv.Counters) *ConvOp {
	return &ConvOp{
		Kernel: kernel,
		Sp:     sp,
		Tr:     conv.NewTransformerPrec(in, kernel.S, sp, method, prec, memoize, counters),
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
	return o.forwardBatch([]*tensor.Tensor{in}, ctx)[0]
}

func (o *ConvOp) forwardBatch(ins []*tensor.Tensor, ctx *FwdCtx) []*tensor.Tensor {
	var sc *conv.SpectrumCache
	if ctx != nil {
		sc = ctx.Spectra
	}
	return o.Tr.ForwardBatch(ins, o.Kernel, sc, ctx.infer())
}

// Backward computes the full convolution with the reflected kernel.
func (o *ConvOp) Backward(grad *tensor.Tensor, ctx *BwdCtx) *tensor.Tensor {
	var sc *conv.SpectrumCache
	if ctx != nil {
		sc = ctx.Spectra
	}
	return o.Tr.Backward(grad, o.Kernel, sc)
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
// forward output, and records the bias gradient.
func (o *TransferOp) Backward(grad *tensor.Tensor, _ *BwdCtx) *tensor.Tensor {
	if o.fwdOut == nil {
		panic("graph: transfer backward before forward")
	}
	out := ops.TransferBackward(o.F, o.fwdOut, grad)
	o.biasGrad = ops.BiasGrad(out)
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
	out, am := ops.MaxFilterSparseForward(in, o.Window, o.Sp, ops.FilterDeque, nil)
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

// DropoutOp is the dropout extension as an edge operation.
type DropoutOp struct {
	D *ops.Dropout
	// Train toggles between training (mask) and inference (identity).
	Train bool
}

// NewDropoutOp builds a dropout op with the given keep probability and
// deterministic seed.
func NewDropoutOp(keep float64, seed int64) *DropoutOp {
	return &DropoutOp{D: ops.NewDropout(keep, seed), Train: true}
}

// Kind returns "dropout".
func (o *DropoutOp) Kind() string { return "dropout" }

// OutShape returns the unchanged input shape.
func (o *DropoutOp) OutShape(in tensor.Shape) tensor.Shape { return in }

// Forward applies a fresh dropout mask (or the identity at inference —
// either via the engine's Train toggle or an inference-round ctx, whose
// concurrent rounds must not share mask state).
func (o *DropoutOp) Forward(in *tensor.Tensor, ctx *FwdCtx) *tensor.Tensor {
	if !o.Train || ctx.infer() {
		return o.D.InferenceForward(in)
	}
	return o.D.Forward(in)
}

// Backward applies the stored mask.
func (o *DropoutOp) Backward(grad *tensor.Tensor, _ *BwdCtx) *tensor.Tensor {
	if !o.Train {
		return grad.Clone()
	}
	return o.D.Backward(grad)
}

// SpectralEligible reports whether all edges are FFT convolutions with
// pairwise-compatible geometry and precision (SpectralCompatible), so
// their converging results may be summed in the FFT domain with a single
// inverse transform at the node (the execution model of the paper's
// Table II costs).
func SpectralEligible(edges []*Edge) bool {
	var first *conv.Transformer
	for _, e := range edges {
		op, ok := e.Op.(*ConvOp)
		if !ok || !op.Tr.Method().IsFFT() {
			return false
		}
		if first == nil {
			first = op.Tr
			continue
		}
		if !first.SpectralCompatible(op.Tr) {
			return false
		}
	}
	return true
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
