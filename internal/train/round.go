package train

import (
	"fmt"
	"sync"

	"znn/internal/chaos"
	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/graph"
	"znn/internal/sched"
	"znn/internal/tensor"
	"znn/internal/wsum"
)

// roundNode is the per-round runtime state of one graph node. The forward
// side is K-wide — one wait-free accumulator, one published image and
// (lazily) one cached spectrum per volume of the round's batch — while the
// backward side is singular: only training rounds run backward, and they
// carry one volume. Accumulators come from the wsum free lists, so N rounds
// in flight get private sums.
type roundNode struct {
	fwdSums  []*wsum.Sum[*tensor.Tensor] // per-volume tensor accumulators
	fwdCSums []*wsum.Sum[fft.Spectrum]   // per-volume spectral accumulators
	bwdSum   *wsum.Sum[*tensor.Tensor]
	bwdCSum  *wsum.Sum[fft.Spectrum]
	spectra  conv.SpectrumCache // forward image spectra shared by out-edges (batch-aware)
	bwdSpec  conv.SpectrumCache // backward image spectra shared by in-edges

	mu      sync.Mutex
	fwdImgs []*tensor.Tensor // per-volume forward images
	fwdLeft int              // volumes whose forward image is not yet published
	bwdImg  *tensor.Tensor
}

// completeFwd publishes volume v's forward image and reports whether it was
// the node's last outstanding volume — the point where the node's batch
// cache can be (re)pointed at the full image set and downstream edges fan
// out over all K volumes at once.
func (rn *roundNode) completeFwd(v int, img *tensor.Tensor) (allDone bool) {
	rn.mu.Lock()
	rn.fwdImgs[v] = img
	rn.fwdLeft--
	allDone = rn.fwdLeft == 0
	rn.mu.Unlock()
	if allDone {
		rn.spectra.Reset(rn.fwdImgs...)
	}
	return allDone
}

func (rn *roundNode) setBwd(img *tensor.Tensor) {
	rn.mu.Lock()
	rn.bwdImg = img
	rn.mu.Unlock()
	rn.bwdSpec.Reset(img)
}

// FwdImage returns the node's forward image for volume 0 — the only volume
// of the exclusive Round/Forward rounds, which are its readers.
func (rn *roundNode) FwdImage() *tensor.Tensor { return rn.FwdImageAt(0) }

// FwdImageAt returns the node's forward image for volume v.
func (rn *roundNode) FwdImageAt(v int) *tensor.Tensor {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.fwdImgs[v]
}

// BwdImage returns the node's backward image from the round.
func (rn *roundNode) BwdImage() *tensor.Tensor {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.bwdImg
}

// Mode selects what a round does and which cross-round state it may touch.
type Mode int

const (
	// ModeInfer is a forward-only round of any batch width K that touches no
	// cross-round op state (dropout in inference mode, no Jacobian or memo
	// recording), so any number run concurrently under AcquireInfer.
	ModeInfer Mode = iota
	// ModeForward is an exclusive, stateful K=1 forward pass: ops record
	// their Jacobian inputs and dropout honours SetTraining, exactly as a
	// training round's forward phase (Engine.Forward).
	ModeForward
	// ModeTrain is a K=1 gradient iteration — forward, loss, backward, lazy
	// updates — numbered and ordered by its TrainPipeline session.
	ModeTrain
)

// RoundState is one round in flight: a private fan-out of tasks over the
// shared Program. The batch width K is data: a round carries its K volumes
// through one task tree, so each (node, edge) sweep loads the edge's kernel
// spectrum once for K pointwise products and the node runs one inverse
// transform per volume (the ZNNi/PZnet batching regime). Training rounds
// (backward = true) additionally carry the desired outputs, the loss
// accumulator and backward sums, and have K = 1; inference rounds
// (infer = true) never allocate backward accumulators and never touch
// cross-round op state, which is what lets many of them run concurrently.
type RoundState struct {
	p        *Program
	sr       *sched.Round
	backward bool               // ModeTrain
	infer    bool               // ModeInfer
	k        int                // batch width (volumes per round)
	batch    [][]*tensor.Tensor // batch[v] is volume v's input images
	desired  []*tensor.Tensor
	nodes    []roundNode
	// fenceSeq is a training round's 1-based sequence number on its Program
	// (set by TrainPipeline.Submit before Start): every forward task
	// is gated on its edge's round-(fenceSeq-1) backward fence, and every
	// backward task releases the edge's fence at fenceSeq (see
	// fanOutForward).
	fenceSeq uint64

	mu          sync.Mutex
	loss        float64
	outputsLeft int
}

// NewRound is the one way work enters the engine: it validates the round's
// inputs against the graph and builds (without running) the per-round
// state. batch holds one input slice per volume in g.Inputs() order; only
// ModeInfer rounds may carry more than one volume, and all K volumes flow
// through a single task tree. desired is the ModeTrain target in
// g.Outputs() order (nil otherwise). The caller must hold the matching
// admission — AcquireInfer for ModeInfer, the exclusive round lock for the
// other two (Engine.Forward and TrainPipeline do) — and runs the round
// with Start/Wait.
//
// Exactly one accumulator per volume is drawn per summing node side — the
// spectral one when the node's edges sum in the FFT domain, the tensor one
// otherwise — and backward accumulators only for training rounds, so
// forward-only rounds allocate strictly less. Inference rounds run their
// spectrum caches pooled: they never memoize, so the buffers can return to
// the spectra pools through the release hook instead of becoming per-round
// garbage.
func (p *Program) NewRound(mode Mode, batch [][]*tensor.Tensor, desired []*tensor.Tensor) (*RoundState, error) {
	backward, infer := mode == ModeTrain, mode == ModeInfer
	k := len(batch)
	if k == 0 {
		return nil, fmt.Errorf("train: empty round batch")
	}
	if k > 1 && !infer {
		return nil, fmt.Errorf("train: batch width %d on a non-inference round (training rounds are K=1)", k)
	}
	for v, inputs := range batch {
		if len(inputs) != len(p.inputs) {
			return nil, fmt.Errorf("train: volume %d: got %d inputs, graph has %d input nodes",
				v, len(inputs), len(p.inputs))
		}
		for i, in := range inputs {
			if in.S != p.inputs[i].Shape {
				return nil, fmt.Errorf("train: volume %d: input %d shape %v, want %v",
					v, i, in.S, p.inputs[i].Shape)
			}
		}
	}
	if backward {
		if len(desired) != len(p.outputs) {
			return nil, fmt.Errorf("train: got %d desired outputs, graph has %d output nodes",
				len(desired), len(p.outputs))
		}
		for i, d := range desired {
			if d.S != p.outputs[i].Shape {
				return nil, fmt.Errorf("train: desired output %d shape %v, want %v",
					i, d.S, p.outputs[i].Shape)
			}
		}
	}
	rs := &RoundState{
		p:           p,
		sr:          p.sch.NewRound(),
		backward:    backward,
		infer:       infer,
		k:           k,
		batch:       batch,
		desired:     desired,
		nodes:       make([]roundNode, len(p.nodes)),
		outputsLeft: len(p.outputs),
	}
	for i := range p.nodes {
		ni := &p.nodes[i]
		rn := &rs.nodes[i]
		rn.fwdImgs = make([]*tensor.Tensor, k)
		rn.fwdLeft = k
		if infer {
			rn.spectra.SetPooled(true)
		}
		if fanIn := len(ni.n.In); fanIn > 0 {
			if ni.fwdSpectral {
				rn.fwdCSums = make([]*wsum.Sum[fft.Spectrum], k)
				for v := range rn.fwdCSums {
					rn.fwdCSums[v] = wsum.GetComplex(fanIn)
				}
			} else {
				rn.fwdSums = make([]*wsum.Sum[*tensor.Tensor], k)
				for v := range rn.fwdSums {
					rn.fwdSums[v] = wsum.Get(fanIn)
				}
			}
		}
		if fanOut := len(ni.n.Out); backward && fanOut > 0 {
			if ni.bwdSpectral {
				rn.bwdCSum = wsum.GetComplex(fanOut)
			} else {
				rn.bwdSum = wsum.Get(fanOut)
			}
		}
	}
	return rs, nil
}

// run executes the round to completion (Start then Wait).
func (rs *RoundState) run() error {
	rs.Start()
	return rs.Wait()
}

// Start spawns the round's data-provider task (Fig. 3, orange node),
// setting the task tree in motion without waiting for it — the submit half
// of every executor that keeps several rounds in flight (a training
// session's Submit, the tiler's window). Pair every Start with exactly one
// Wait.
func (rs *RoundState) Start() {
	providerPrio := int64(1 << 30) // runs before any forward task
	rs.sr.Spawn(sched.Work, providerPrio, func() {
		// The "round.dispatch" chaos point fires inside the round's own
		// provider task, so an injected panic or error lands exactly where
		// a real mid-round fault would: attributed to THIS round by the
		// scheduler (round-local containment), never the engine's sticky
		// error or a sibling round.
		if err := chaos.Inject("round.dispatch"); err != nil {
			panic(err)
		}
		for i, node := range rs.p.inputs {
			rn := &rs.nodes[node.ID]
			imgs := make([]*tensor.Tensor, rs.k)
			for v := range rs.batch {
				imgs[v] = rs.batch[v][i]
			}
			rn.mu.Lock()
			copy(rn.fwdImgs, imgs)
			rn.fwdLeft = 0
			rn.mu.Unlock()
			rn.spectra.Reset(rn.fwdImgs...)
			rs.fanOutForward(node, imgs)
		}
	})
}

// Wait blocks until the round's own task tree has completed — other rounds
// in flight and lazy update tasks are not waited on — then returns the
// round's accumulators to their free lists and pooled spectrum-cache
// buffers to the spectra pools; the published images (Outputs/OutputsAt)
// stay valid. The returned error is round-local (sched attributes a round
// task's panic to its Round), so one failing round in flight does not
// poison concurrent or later rounds; update-task panics stay on the
// engine's sticky error (Program.Err).
func (rs *RoundState) Wait() error {
	rs.sr.Wait()
	rs.release()
	return rs.sr.Err()
}

// release returns the round's accumulators to the wsum free lists and, on
// inference rounds, the spectrum-cache buffers to the spectra pools (the
// pooled-cache release hook). Called after the round's task tree has
// completed, so no task can still touch them; the image tensors the sums
// produced are owned by rs.nodes now.
func (rs *RoundState) release() {
	for i := range rs.nodes {
		rn := &rs.nodes[i]
		for v, s := range rn.fwdSums {
			if s != nil {
				s.Release()
				rn.fwdSums[v] = nil
			}
		}
		for v, s := range rn.fwdCSums {
			if s != nil {
				s.Release()
				rn.fwdCSums[v] = nil
			}
		}
		if rn.bwdSum != nil {
			rn.bwdSum.Release()
			rn.bwdSum = nil
		}
		if rn.bwdCSum != nil {
			rn.bwdCSum.Release()
			rn.bwdCSum = nil
		}
		if rs.infer {
			rn.spectra.ReleaseAll()
			rn.bwdSpec.ReleaseAll()
		}
	}
}

// Outputs returns the round's output images in g.Outputs() order (volume 0
// — the whole result of a K=1 round).
func (rs *RoundState) Outputs() []*tensor.Tensor { return rs.OutputsAt(0) }

// OutputsAt returns volume v's output images in g.Outputs() order.
func (rs *RoundState) OutputsAt(v int) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(rs.p.outputs))
	for i, o := range rs.p.outputs {
		outs[i] = rs.nodes[o.ID].FwdImageAt(v)
	}
	return outs
}

// Loss returns the loss computed by the round's loss-gradient task.
func (rs *RoundState) Loss() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.loss
}

// fanOutForward enqueues the forward tasks of node's out-edges, each
// consuming the node's K published images.
//
// Training rounds gate each out-edge on its per-edge fence: the forward
// wrapper is created — and counted against the round — immediately, but
// enqueued only once the edge's fence reports the previous training round's
// backward task on that edge completed (immediately, when the caller
// waited that round already). The wrapper then FORCEs the edge's pending
// update and runs the forward (Algorithm 1, FORWARD-TASK + FORCE).
//
// Forward-only rounds skip the FORCE bookkeeping entirely: their admission
// drained all pending update tasks, so there is nothing to force and no
// cross-round edge state to order. Their tasks go out as one scheduler
// batch (a fused round's task counts scale with K, so per-task lock
// traffic would too).
func (rs *RoundState) fanOutForward(n *graph.Node, imgs []*tensor.Tensor) {
	if rs.backward {
		for _, e := range n.Out {
			e := e
			es := rs.p.edges[e.ID]
			wrapper := rs.sr.NewTask(sched.Work, e.To.FwdPrio, func() {
				sub := rs.sr.NewTask(sched.Work, e.To.FwdPrio, func() {
					rs.doForward(e, imgs)
				})
				rs.p.sch.Force(es.pendingUpdate(), sub)
			})
			es.whenBackward(rs.fenceSeq-1, func() {
				rs.p.sch.Enqueue(wrapper)
			})
		}
		return
	}
	specs := make([]sched.TaskSpec, len(n.Out))
	for i, e := range n.Out {
		e := e
		specs[i] = sched.TaskSpec{Prio: e.To.FwdPrio, Fn: func() {
			rs.doForward(e, imgs)
		}}
	}
	rs.sr.SpawnBatch(specs)
}

// doForward is Algorithm 1's DO-FORWARD over the round's volumes: one sweep
// of the edge (its kernel spectrum fetched once), then each volume joins
// its own accumulator at the target node. The two arms are the two kinds
// of sum a node can have.
func (rs *RoundState) doForward(e *graph.Edge, imgs []*tensor.Tensor) {
	us := &rs.nodes[e.From.ID]
	vs := &rs.nodes[e.To.ID]
	if rs.p.nodes[e.To.ID].fwdSpectral {
		op := e.Op.(*graph.ConvOp)
		var done []int // volumes whose sum this task completed
		for v, prod := range op.Tr.ForwardProducts(imgs, op.Kernel, &us.spectra, rs.infer) {
			if vs.fwdCSums[v].Add(prod) {
				done = append(done, v)
			}
		}
		// One inverse transform per (node, volume). All but one go out as
		// tasks so the inverses of a completed batch run in parallel instead
		// of serializing here; the last runs on this task.
		for i, v := range done {
			if i == len(done)-1 {
				rs.finishSpectral(e, v)
				break
			}
			v := v
			rs.sr.Spawn(sched.Work, e.To.FwdPrio, func() { rs.finishSpectral(e, v) })
		}
		return
	}
	ctx := &graph.FwdCtx{Spectra: &us.spectra, Infer: rs.infer}
	for v, out := range graph.ForwardBatch(e.Op, imgs, ctx) {
		if vs.fwdSums[v].Add(out) {
			rs.finishForward(e, v, vs.fwdSums[v].Value())
		}
	}
}

// finishSpectral inverts volume v's completed spectral sum at edge e's
// target node and publishes the image.
func (rs *RoundState) finishSpectral(e *graph.Edge, v int) {
	sum := rs.nodes[e.To.ID].fwdCSums[v].Value()
	rs.finishForward(e, v, e.Op.(*graph.ConvOp).Tr.FinishForward(sum))
}

// finishForward publishes volume v's completed image at edge e's target
// node; the node's last volume triggers the downstream fan-out (or output
// accounting).
func (rs *RoundState) finishForward(e *graph.Edge, v int, img *tensor.Tensor) {
	vs := &rs.nodes[e.To.ID]
	if !vs.completeFwd(v, img) {
		return
	}
	if e.To.IsOutput() {
		rs.outputReady()
		return
	}
	vs.mu.Lock()
	imgs := vs.fwdImgs
	vs.mu.Unlock()
	rs.fanOutForward(e.To, imgs)
}

// outputReady fires when one output node's forward images complete for all
// K volumes; on training rounds the last output node spawns the
// loss-gradient task (Fig. 3, dark red nodes).
func (rs *RoundState) outputReady() {
	rs.mu.Lock()
	rs.outputsLeft--
	ready := rs.outputsLeft == 0
	rs.mu.Unlock()
	if !ready || !rs.backward {
		return
	}
	// Loss priority: above all backward tasks so the backward pass starts
	// immediately.
	lossPrio := int64(1 << 30)
	rs.sr.Spawn(sched.Work, lossPrio, func() {
		actual := rs.Outputs()
		loss, grads := rs.p.cfg.Loss.Eval(actual, rs.desired)
		rs.mu.Lock()
		rs.loss = loss
		rs.mu.Unlock()
		for i, o := range rs.p.outputs {
			rs.nodes[o.ID].setBwd(grads[i])
			for _, e := range o.In {
				rs.spawnBackward(e, grads[i])
			}
		}
	})
}

// spawnBackward enqueues the backward task of edge e = (u, v) consuming the
// backward image at v (Algorithm 2). Backward runs only on training
// rounds, which are K=1.
func (rs *RoundState) spawnBackward(e *graph.Edge, img *tensor.Tensor) {
	rs.sr.Spawn(sched.Work, e.From.BwdPrio, func() {
		rs.doBackward(e, img)
	})
}

// doBackward is Algorithm 2's BACKWARD-TASK body. The order matters: the
// backward transform runs first (trainable transfer ops record their bias
// gradient during it), then the update task is enqueued, then the result
// joins the source node's sum.
func (rs *RoundState) doBackward(e *graph.Edge, img *tensor.Tensor) {
	vs := &rs.nodes[e.To.ID]
	us := &rs.nodes[e.From.ID]
	bwdSpectral := rs.p.nodes[e.From.ID].bwdSpectral

	var out *tensor.Tensor // non-spectral backward output
	var prod fft.Spectrum  // spectral backward product
	if bwdSpectral {
		op := e.Op.(*graph.ConvOp)
		prod = op.Tr.BackwardProduct(img, op.Kernel, &vs.bwdSpec)
	} else {
		out = e.Op.Backward(img, &graph.BwdCtx{Spectra: &vs.bwdSpec})
	}

	if trainable, ok := e.Op.(graph.Trainable); ok {
		fwdIn := us.FwdImage() // If = u.fwd_image, captured now
		opt := graph.UpdateOpts{Eta: rs.p.cfg.Eta, Momentum: rs.p.cfg.Momentum}
		upd := rs.sr.NewTask(sched.Update, graph.UpdatePriority, func() {
			trainable.Update(fwdIn, img, opt)
		})
		rs.p.edges[e.ID].swapUpdate(upd)
		rs.p.sch.Enqueue(upd)
	}

	// All cross-round edge state is settled: the backward transform has
	// consumed the op's recorded forward inputs and this round's update
	// task (if any) sits in the edge slot where FORCE orders it. Release
	// the edge's fence so a successor round's forward on e can be admitted —
	// the source-sum join below is round-local and need not hold it back.
	rs.p.edges[e.ID].backwardDone(rs.fenceSeq)

	var sum *tensor.Tensor
	if bwdSpectral {
		if !us.bwdCSum.Add(prod) {
			return
		}
		sum = e.Op.(*graph.ConvOp).Tr.FinishBackward(us.bwdCSum.Value())
	} else {
		if !us.bwdSum.Add(out) {
			return
		}
		sum = us.bwdSum.Value()
	}
	us.setBwd(sum)
	if e.From.IsInput() {
		return
	}
	for _, e2 := range e.From.In {
		rs.spawnBackward(e2, sum)
	}
}
