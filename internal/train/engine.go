package train

import (
	"sync"
	"time"

	"znn/internal/graph"
	"znn/internal/sched"
	"znn/internal/tensor"
)

// Engine executes rounds on a compiled Program. It is the stable façade
// over the Program/RoundState split and runs two kinds of round: training
// rounds (Round, or a TrainPipeline session), exclusive and stateful, with
// dropout masking and NodeForward reporting the last one; and inference
// rounds (Infer), forward-only and K-wide, with dropout the identity, any
// number in flight at once from any number of goroutines.
type Engine struct {
	p *Program

	mu       sync.Mutex
	lastLoss float64
	last     *RoundState // most recent successful training round
}

// NewEngine compiles the graph into an execution engine (see Compile for
// the structural requirements on the graph).
func NewEngine(g *graph.Graph, cfg Config) (*Engine, error) {
	p, err := Compile(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{p: p}, nil
}

// Program returns the engine's compiled program.
func (en *Engine) Program() *Program { return en.p }

// Workers returns the number of scheduler workers.
func (en *Engine) Workers() int { return en.p.cfg.Workers }

// NumInputs returns the number of graph input nodes (volumes per round).
func (en *Engine) NumInputs() int { return len(en.p.inputs) }

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

// Infer runs ONE K-wide forward-only inference round over the batch —
// batch[v] is volume v's input slice in g.Inputs() order — and returns each
// volume's outputs in g.Outputs() order. K is data, not a code path: each
// node sum runs as one node task per volume (a direct sum per block of
// output planes), and a spectral node runs one inverse transform per
// volume. Per-volume results are bit-identical to K separate K=1 rounds.
//
// Infer is safe to call from any number of goroutines at once: rounds share
// the Program's scheduler, kernel spectra and memory pools but carry
// private part sums and spectrum caches, so N calls keep every worker
// busy even when one round exposes little parallelism. Dropout is the
// identity and no gradient or Jacobian state is touched. Pending
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
	rs.Start()
	if err := rs.Wait(); err != nil {
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
// successful training round, or nil if unknown. Inference rounds keep
// their images private and leave it unchanged.
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

// Close drains pending updates and shuts the engine down (see shutdown).
func (en *Engine) Close() error {
	err := en.Drain()
	en.shutdown()
	return err
}

// CloseTimeout is Close with a bounded drain: it waits up to d for the
// scheduler to go idle, then shuts the engine down if it did. When the
// drain times out (a wedged round mid-crash) it reports false and leaves
// the engine running — the graceful-shutdown caller exits anyway rather
// than hanging forever, which is the drain contract a serving process
// needs on SIGTERM.
func (en *Engine) CloseTimeout(d time.Duration) (drained bool, err error) {
	drained = en.p.sch.Quiesce(d)
	err = en.p.sch.Err()
	if drained {
		en.shutdown()
	}
	return drained, err
}

// shutdown returns the transformers' pooled kernel spectra and stops the
// workers. Releasing the spectra keeps a closed engine from inflating the
// pools' live-byte baseline (kernel spectra stay checked out across rounds
// while the engine lives); the graph's transformers recompute them on the
// next compile's first round.
func (en *Engine) shutdown() {
	for _, e := range en.p.g.Edges {
		if op, ok := e.Op.(*graph.ConvOp); ok {
			op.Tr.ReleaseKernelSpectra()
		}
	}
	en.p.sch.Shutdown()
}
