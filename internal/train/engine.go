package train

import (
	"sync"
	"time"

	"znn/internal/graph"
	"znn/internal/sched"
	"znn/internal/tensor"
)

// Engine executes rounds on a compiled Program. It is the stable façade
// over the Program/RoundState split: Round and Forward keep their original
// exclusive, stateful semantics (NodeForward reports the last such round),
// while Infer runs forward-only K-wide rounds that may be in flight
// concurrently from any number of goroutines.
type Engine struct {
	p *Program

	mu       sync.Mutex
	lastLoss float64
	last     *RoundState // most recent successful exclusive round (Round or Forward)
	training bool
}

// NewEngine compiles the graph into an execution engine (see Compile for
// the structural requirements on the graph).
func NewEngine(g *graph.Graph, cfg Config) (*Engine, error) {
	p, err := Compile(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{p: p, training: true}, nil
}

// Program returns the engine's compiled program.
func (en *Engine) Program() *Program { return en.p }

// Workers returns the number of scheduler workers.
func (en *Engine) Workers() int { return en.p.cfg.Workers }

// NumInputs returns the number of graph input nodes (volumes per round).
func (en *Engine) NumInputs() int { return len(en.p.inputs) }

// SetTraining toggles dropout layers between training and inference mode.
// It affects Round and Forward; Infer always runs dropout in inference
// mode (the toggle is cross-round op state, which concurrent forward-only
// rounds must not depend on).
func (en *Engine) SetTraining(training bool) {
	// Exclusive: DropoutOp.Train is read by concurrently running rounds.
	en.p.roundMu.Lock()
	defer en.p.roundMu.Unlock()
	en.mu.Lock()
	en.training = training
	en.mu.Unlock()
	for _, e := range en.p.g.Edges {
		if d, ok := e.Op.(*graph.DropoutOp); ok {
			d.Train = training
		}
	}
}

// Round runs one gradient iteration: forward pass on the inputs, loss
// against the desired outputs, backward pass, and (lazily executed) weight
// updates. It returns the loss. inputs and desired follow the order of
// g.Inputs() and g.Outputs(). It is a one-round training session — open,
// Submit, Wait, Close — so it shares every line of the path overlapped
// training takes; sessions are exclusive, so concurrent calls serialize.
func (en *Engine) Round(inputs, desired []*tensor.Tensor) (float64, error) {
	tp := en.StartPipeline()
	defer tp.Close()
	pr, err := tp.Submit(inputs, desired)
	if err != nil {
		return 0, err
	}
	return pr.Wait()
}

// Forward runs a forward-only pass and returns the output images in
// g.Outputs() order. Like Round it is exclusive and stateful: ops record
// their Jacobian inputs, dropout honours SetTraining, and pending weight
// updates are applied before the pass. For concurrent, side-effect-free
// inference use Infer.
func (en *Engine) Forward(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	en.p.roundMu.Lock()
	defer en.p.roundMu.Unlock()
	en.p.sch.DrainUpdates()
	rs, err := en.p.NewRound(ModeForward, [][]*tensor.Tensor{inputs}, nil)
	if err != nil {
		return nil, err
	}
	if err := rs.run(); err != nil {
		return nil, err
	}
	if err := en.p.sch.Err(); err != nil {
		return nil, err
	}
	en.mu.Lock()
	en.last = rs
	en.mu.Unlock()
	return rs.Outputs(), nil
}

// Infer runs ONE K-wide forward-only inference round over the batch —
// batch[v] is volume v's input slice in g.Inputs() order — and returns each
// volume's outputs in g.Outputs() order. The round sweeps all K volumes at
// each (node, edge) step: one kernel-spectrum fetch per edge feeds K
// pointwise products, and each summing node runs one inverse transform per
// volume. Per-volume results are bit-identical to K serialized Forward
// passes.
//
// Infer is safe to call from any number of goroutines at once: rounds share
// the Program's scheduler, kernel spectra and memory pools but carry
// private accumulators and spectrum caches, so N calls keep every worker
// busy even when one round exposes little parallelism. Dropout runs in
// inference mode and no gradient or Jacobian state is touched. Pending
// weight updates from a previous training round are drained before the
// first concurrent round is admitted, so all in-flight rounds see one
// consistent set of weights. A round error fails only this batch.
func (en *Engine) Infer(batch [][]*tensor.Tensor) ([][]*tensor.Tensor, error) {
	release := en.p.AcquireInfer()
	defer release()
	rs, err := en.p.NewRound(ModeInfer, batch, nil)
	if err != nil {
		return nil, err
	}
	if err := rs.run(); err != nil {
		return nil, err
	}
	// A sticky engine error means an update task panicked: weights are
	// partially applied and every result is suspect, so keep failing.
	if err := en.p.sch.Err(); err != nil {
		return nil, err
	}
	outs := make([][]*tensor.Tensor, len(batch))
	for v := range batch {
		outs[v] = rs.OutputsAt(v)
	}
	return outs, nil
}

// Drain executes all pending update tasks (normally they are forced by the
// next round's forward pass; call Drain after the final round so the last
// gradients are applied).
func (en *Engine) Drain() error {
	en.p.sch.Drain()
	return en.p.sch.Err()
}

// NodeForward returns the forward image at the named node from the last
// successful exclusive round (Round or Forward), or nil if unknown.
func (en *Engine) NodeForward(name string) *tensor.Tensor {
	en.mu.Lock()
	last := en.last
	en.mu.Unlock()
	if last == nil {
		return nil
	}
	for i := range en.p.nodes {
		if en.p.nodes[i].n.Name == name {
			return last.nodes[i].FwdImage()
		}
	}
	return nil
}

// SchedulerStats returns scheduler counters for the current engine.
func (en *Engine) SchedulerStats() sched.Stats { return en.p.sch.Stats() }

// Loss returns the loss of the most recent successful training round.
func (en *Engine) Loss() float64 {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.lastLoss
}

// Close drains pending updates, returns the transformers' pooled kernel
// spectra, and shuts the scheduler down. Releasing the spectra keeps a
// closed engine from inflating the pools' live-byte baseline (kernel
// spectra stay checked out across rounds while the engine lives); the
// graph's transformers recompute them on the next compile's first round.
func (en *Engine) Close() error {
	err := en.Drain()
	for _, e := range en.p.g.Edges {
		if op, ok := e.Op.(*graph.ConvOp); ok {
			op.Tr.ReleaseKernelSpectra()
		}
	}
	en.p.sch.Shutdown()
	return err
}

// CloseTimeout is Close with a bounded drain: it waits up to d for the
// scheduler to go idle, then shuts the workers down if it did. When the
// drain times out (a wedged round mid-crash) it reports false and leaves
// the engine running — the graceful-shutdown caller exits anyway rather
// than hanging forever, which is the drain contract a serving process
// needs on SIGTERM.
func (en *Engine) CloseTimeout(d time.Duration) (drained bool, err error) {
	drained = en.p.sch.Quiesce(d)
	err = en.p.sch.Err()
	if drained {
		en.p.sch.Shutdown()
	}
	return drained, err
}
