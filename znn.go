// Package znn is a pure-Go implementation of ZNN, the task-parallel
// training engine for 3D (and 2D) convolutional networks on multi-core
// shared-memory machines described in:
//
//	A. Zlateski, K. Lee, H. S. Seung.
//	"ZNN – A Fast and Scalable Algorithm for Training 3D Convolutional
//	Networks on Multi-Core and Many-Core Shared Memory Machines."
//	IPDPS 2016. arXiv:1510.06706.
//
// The package exposes:
//
//   - Network: layered ConvNets built from a compact spec string
//     ("C3-Trelu-M2-C3-Trelu-..."), trained with the paper's priority
//     scheduler, FFT/direct autotuned convolution, FFT memoization, and
//     node sums in a fixed order, so training is bitwise reproducible at
//     any worker count.
//   - GraphBuilder: arbitrary-topology computation graphs ("ZNN allows for
//     easy extensions and can efficiently train a ConvNet with an
//     arbitrary topology").
//   - Sliding-window training: max-pooling specs are convertible to
//     max-filtering networks with sparse convolutions (skip-kernels),
//     producing dense output patches efficiently.
package znn

import (
	"fmt"
	"runtime"
	"time"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/plan"
	"znn/internal/sched"
	"znn/internal/tensor"
	"znn/internal/train"
)

// Tensor is a dense 3D image volume (2D images have Z extent 1).
type Tensor = tensor.Tensor

// Shape is the extent of a volume along x, y, z.
type Shape = tensor.Shape

// Sparsity is the per-axis dilation of sparse convolutions and filters.
type Sparsity = tensor.Sparsity

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(s Shape) *Tensor { return tensor.New(s) }

// S3 constructs a Shape.
func S3(x, y, z int) Shape { return tensor.S3(x, y, z) }

// Cube returns the isotropic 3D shape n×n×n.
func Cube(n int) Shape { return tensor.Cube(n) }

// Square returns the 2D shape n×n×1.
func Square(n int) Shape { return tensor.Square(n) }

// Dense is the sparsity of ordinary convolution.
func Dense() Sparsity { return tensor.Dense() }

// Uniform returns isotropic sparsity s.
func Uniform(s int) Sparsity { return tensor.Uniform(s) }

// ConvMode selects how each conv layer's method (direct or FFT) is chosen.
// Checkpoints store it, so the values are fixed: 1 was the retired
// measured autotuner and loads as Autotune; any other unlisted value makes
// NewNetwork, Load and GraphBuilder.Build fail.
type ConvMode int

// Convolution modes. Autotune prices every conv layer by the Table II cost
// of one training round at the configured precision and runs the cheaper
// method (internal/plan's training objective, ZNN §IV's layerwise
// autotuning); ForceDirect and ForceFFT run every layer with one method.
// Planned networks ignore the mode: their plan picks every layer's method.
const (
	Autotune    ConvMode = 0
	ForceDirect ConvMode = 2
	ForceFFT    ConvMode = 3

	legacyAutotuneMeasured ConvMode = 1
)

// Config collects network construction and training options.
type Config struct {
	// Width is f, the number of nodes per hidden convolutional layer.
	Width int
	// OutWidth is the number of output images (default 1).
	OutWidth int
	// InWidth is the number of input images (default 1).
	InWidth int
	// Dims is 2 or 3 (default 3).
	Dims int
	// OutputPatch is the output extent per axis; the input extent is
	// derived from the spec. Exactly one of OutputPatch/InputPatch.
	OutputPatch int
	// InputPatch sets the input extent directly.
	InputPatch int
	// Workers is the scheduler worker count; 0 defaults to all CPUs
	// (runtime.NumCPU()) — the paper's scheduler exists to use every
	// core, so the old silent default of 1 was a trap.
	Workers int
	// Conv selects how conv layers pick their method (default Autotune).
	Conv ConvMode
	// Memoize enables FFT memoization (Section IV).
	Memoize bool
	// Loss is the training loss name: "squared", "bce", "softmax"
	// (default "squared").
	Loss string
	// Eta is the learning rate (default 0.01).
	Eta float64
	// Momentum is the classical momentum coefficient.
	Momentum float64
	// Seed drives parameter initialization (default 0).
	Seed int64
	// SlidingWindow converts max-pooling layers to max-filtering with
	// sparse convolution (Fig. 2), enabling dense output patches.
	SlidingWindow bool
	// Float32 runs the packed spectral pipeline in float32/complex64:
	// half the spectrum memory and bandwidth at float32 accuracy. The
	// planner's cost model accounts for the halved bandwidth when
	// choosing direct vs FFT per layer. Weights and images stay float64;
	// only the transform-domain work changes precision.
	Float32 bool
	// Planned plans the network for inference: instead of pricing each
	// conv layer's training round, the network is compiled from a plan
	// that picks (method, precision) per layer and a fused batch width K
	// to maximize modeled forward throughput — under MemBudget when one is
	// set. MemBudget > 0 implies Planned.
	Planned bool
	// MemBudget bounds the plan's estimated pooled spectrum bytes for one
	// fused inference round (see internal/plan for the exact semantics);
	// 0 means unconstrained.
	MemBudget int64
	// PlanMaxK caps the planner's fused batch width (default 8): the
	// widest K-wide round the plan's footprint estimate must cover. Tiled
	// inference (InferVolume, InferVolumeIO) runs its blocks in rounds of
	// the plan's K; Infer always runs K=1 rounds.
	PlanMaxK int
}

// convMode resolves c.Conv: the method conv edges are built with, and
// whether the planner's training objective replaces it at compile time.
// Planned networks replace it whatever the mode.
func (c Config) convMode() (built conv.Method, autotune bool, err error) {
	switch c.Conv {
	case Autotune, legacyAutotuneMeasured:
		return conv.Direct, true, nil
	case ForceDirect:
		return conv.Direct, false, nil
	case ForceFFT:
		return conv.FFT, false, nil
	}
	return 0, false, fmt.Errorf("znn: unknown Config.Conv mode %d", c.Conv)
}

func (c Config) precision() conv.Precision {
	if c.Float32 {
		return conv.PrecF32
	}
	return conv.PrecF64
}

// Network is a trainable layered ConvNet.
type Network struct {
	spec net.Spec
	nw   *net.Network
	en   *train.Engine
	cfg  Config
	pl   *plan.Plan // non-nil when compiled from an execution plan
}

// NewNetwork parses the spec and builds a trainable network.
func NewNetwork(spec string, cfg Config) (*Network, error) {
	parsed, err := net.Parse(spec)
	if err != nil {
		return nil, err
	}
	if cfg.SlidingWindow {
		parsed = parsed.ToFiltering()
	}
	return compile(parsed, cfg, net.BuildOptions{
		OutputExtent: cfg.OutputPatch,
		InputExtent:  cfg.InputPatch,
	}, nil, 0)
}

// compile builds spec at the geometry bo names (patch extents or an explicit
// input shape; the remaining build options come from cfg), installs params
// when non-nil — before planning, which reads the kernels' densities — and
// compiles the engine. rounds is the number of in-flight fused rounds a
// planned network's byte model is charged for.
func compile(spec net.Spec, cfg Config, bo net.BuildOptions, params []float64, rounds int) (*Network, error) {
	method, _, err := cfg.convMode()
	if err != nil {
		return nil, err
	}
	bo.Width, bo.InWidth, bo.OutWidth, bo.Dims = cfg.Width, cfg.InWidth, cfg.OutWidth, cfg.Dims
	bo.Method, bo.Memoize, bo.Seed = method, cfg.Memoize, cfg.Seed
	nw, err := net.Build(spec, bo)
	if err != nil {
		return nil, err
	}
	if params != nil {
		if err := nw.SetParams(params); err != nil {
			return nil, err
		}
	}
	en, pl, err := cfg.engine(nw.G, rounds)
	if err != nil {
		return nil, err
	}
	return &Network{spec: spec, nw: nw, en: en, cfg: cfg, pl: pl}, nil
}

// engine compiles g, built with c.convMode's method, into a training
// engine. Unless the mode forces one method, the execution planner picks
// every conv layer's method from graph.LayerGeoms(g), which reads the live
// kernel densities: under the inference objective when c is planned, its
// byte model charged for rounds fused rounds in flight, and otherwise under
// the training objective at c's precision. The returned plan is the
// inference plan, nil unless c is planned.
func (c Config) engine(g *graph.Graph, rounds int) (*train.Engine, *plan.Plan, error) {
	lossName := c.Loss
	if lossName == "" {
		lossName = "squared"
	}
	loss, err := ops.LossByName(lossName)
	if err != nil {
		return nil, nil, err
	}
	_, autotune, err := c.convMode()
	if err != nil {
		return nil, nil, err
	}
	var pl, apply *plan.Plan
	if c.Planned || c.MemBudget > 0 {
		pl, err = plan.Build(graph.LayerGeoms(g), c.planConfig(c.MemBudget, rounds))
		apply = pl
	} else if autotune {
		apply, err = plan.Build(graph.LayerGeoms(g), plan.Config{Training: true, Precisions: []conv.Precision{c.precision()}})
	}
	if err != nil {
		return nil, nil, err
	}
	en, err := train.NewEngine(g, train.Config{
		Workers:   c.Workers,
		Loss:      loss,
		Eta:       c.Eta,
		Momentum:  c.Momentum,
		Precision: c.precision(),
		Plan:      apply,
	})
	if err != nil {
		return nil, nil, err
	}
	return en, pl, nil
}

// planConfig is the execution planner's configuration for this network
// config under the given byte budget and in-flight round count.
func (c Config) planConfig(budget int64, rounds int) plan.Config {
	pc := plan.Config{
		Budget:  budget,
		MaxK:    c.PlanMaxK,
		Workers: c.Workers,
		Rounds:  rounds,
	}
	if pc.Workers < 1 {
		pc.Workers = runtime.NumCPU()
	}
	if c.Float32 {
		pc.Precisions = []conv.Precision{conv.PrecF32}
	}
	return pc
}

// InputShape returns the shape training inputs must have.
func (n *Network) InputShape() Shape { return n.nw.InputShape() }

// NumInputs returns the number of input volumes per round (InWidth).
func (n *Network) NumInputs() int { return n.en.NumInputs() }

// NumOutputs returns the number of output volumes per round (OutWidth).
func (n *Network) NumOutputs() int { return len(n.nw.Outputs) }

// OutputShape returns the shape of the network outputs.
func (n *Network) OutputShape() Shape { return n.nw.OutputShape() }

// NumParams returns the number of trainable scalars.
func (n *Network) NumParams() int { return n.nw.NumParams() }

// Workers returns the scheduler worker count the network runs on.
func (n *Network) Workers() int { return n.en.Workers() }

// Spec returns the (possibly sliding-window-transformed) layer spec.
func (n *Network) Spec() string { return n.spec.String() }

// FieldOfView returns the input extent that influences one output voxel.
func (n *Network) FieldOfView() int { return n.spec.FieldOfView() }

// LayerMethods reports the convolution method each conv layer runs, read
// from its compiled edges.
func (n *Network) LayerMethods() []string {
	var out []string
	left := 0 // edges of the current layer still to pass
	for _, e := range n.nw.G.Edges {
		op, ok := e.Op.(*graph.ConvOp)
		if !ok {
			continue
		}
		if left == 0 { // conv edges are built layer by layer, f·f′ each
			g := graph.ConvGeom(e)
			left = g.F * g.FPrime
			out = append(out, op.Tr.Method().String())
		}
		left--
	}
	return out
}

// Plan returns the execution plan the network was compiled from, or nil
// unless the network is Planned.
func (n *Network) Plan() *plan.Plan { return n.pl }

// Train runs one gradient iteration on a single-input single-output
// network and returns the loss.
func (n *Network) Train(input, desired *Tensor) (float64, error) {
	return n.en.Round([]*Tensor{input}, []*Tensor{desired})
}

// TrainMulti runs one gradient iteration with explicit input and desired
// slices (for InWidth/OutWidth > 1).
func (n *Network) TrainMulti(inputs, desired []*Tensor) (float64, error) {
	return n.en.Round(inputs, desired)
}

// TrainPipeline is a training session; see TrainStart.
type TrainPipeline = train.TrainPipeline

// PendingRound is one submitted training round of a TrainPipeline; its
// Wait returns the round's loss.
type PendingRound = train.PendingRound

// TrainStart opens a training session and returns its handle. The session
// owns the network until its Close: Infer and Train block for the
// duration. Submit starts a round without waiting for it, and overlap
// is how the caller waits: waiting each round before submitting the next
// is exactly Train (which is itself a one-round session), while keeping
// one round submitted ahead overlaps consecutive rounds — round N+1's
// forward work on an edge starts as soon as round N's backward work on
// that edge has drained. Typical overlapped loop:
//
//	tp := n.TrainStart()
//	var prev *znn.PendingRound
//	for _, s := range samples {
//		pr, err := tp.Submit(s.Inputs, s.Desired)
//		if err != nil { ... }
//		if prev != nil {
//			loss, err := prev.Wait()
//			...
//		}
//		prev = pr
//	}
//	err := tp.Close() // waits the tail
func (n *Network) TrainStart() *TrainPipeline { return n.en.StartPipeline() }

// Drain applies all pending lazy weight updates. Training normally leaves
// the final round's updates queued (they are forced by the next round's
// forward pass); call Drain after the last round — or before reading
// Params — so every gradient is applied. Close drains implicitly.
func (n *Network) Drain() error { return n.en.Drain() }

// Infer runs a forward-only inference round on one volume and returns the
// outputs. Infer is safe to call from any number of goroutines at once:
// concurrent calls keep their rounds in flight on the shared scheduler and
// memory pools simultaneously, which is how a narrow network saturates a
// wide machine under serving traffic. Dropout layers are the identity in
// an inference round (they mask only in training rounds); pending weight updates from training are applied
// before the first concurrent round is admitted, so all in-flight rounds
// see one consistent set of weights.
func (n *Network) Infer(inputs ...*Tensor) ([]*Tensor, error) {
	outs, err := n.en.Infer([][]*Tensor{inputs})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Params returns a copy of the flattened parameter vector.
func (n *Network) Params() []float64 { return n.nw.Params() }

// SetParams installs a parameter vector from Params.
func (n *Network) SetParams(p []float64) error { return n.nw.SetParams(p) }

// Loss returns the most recent training loss.
func (n *Network) Loss() float64 { return n.en.Loss() }

// Stats reports scheduler counters (forced updates etc.).
func (n *Network) Stats() sched.Stats { return n.en.SchedulerStats() }

// Close applies pending weight updates and stops the workers.
func (n *Network) Close() error { return n.en.Close() }

// CloseTimeout closes the network with a bounded drain: it waits up to d
// for in-flight rounds and pending updates to finish, then stops the
// workers. It reports whether the drain completed; on false the workers
// are left running (the caller is expected to be exiting the process).
// This is the drain hook znn-serve's graceful shutdown uses.
func (n *Network) CloseTimeout(d time.Duration) (drained bool, err error) {
	return n.en.CloseTimeout(d)
}

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("znn.Network{%s width=%d in=%v out=%v params=%d}",
		n.spec, n.cfg.Width, n.InputShape(), n.OutputShape(), n.NumParams())
}
