package train

import (
	"fmt"
	"sync"
	"sync/atomic"

	"znn/internal/chaos"
	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/graph"
	"znn/internal/sched"
	"znn/internal/tensor"
	"znn/internal/wsum"
)

// roundNode is the per-round runtime state of one graph node. The forward
// side is K-wide — one wait-free accumulator (when the node sums more than
// one part), one published image and (lazily) one cached spectrum per
// volume of the round's batch — while the backward side is singular: only
// training rounds run backward, and they carry one volume. Accumulators
// come from the wsum free lists, so N rounds in flight get private sums.
type roundNode struct {
	fwdSums  []*wsum.Sum[*tensor.Tensor] // per-volume tensor accumulators
	fwdCSums []*wsum.Sum[fft.Spectrum]   // per-volume spectral accumulators
	bwdSum   *wsum.Sum[*tensor.Tensor]
	bwdCSum  *wsum.Sum[fft.Spectrum]
	spectra  conv.SpectrumCache // forward image spectra shared by out-edges (batch-aware)
	bwdSpec  conv.SpectrumCache // backward image spectra shared by in-edges
	pads     conv.PadCache      // backward image padded per halo, shared by direct in-edges

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
	rn.pads.Reset(img)
}

// FwdImage returns the node's forward image for volume 0 — the only volume
// of a training round, its reader.
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
// There are two kinds, and whether dropout masks follows from the kind.
type Mode int

const (
	// ModeInfer is a forward-only round of any batch width K that touches no
	// cross-round op state (dropout is the identity, no Jacobian or memo
	// recording), so any number run concurrently under AcquireInfer.
	ModeInfer Mode = iota
	// ModeTrain is a K=1 gradient iteration — forward, loss, backward, lazy
	// updates — numbered and ordered by its TrainPipeline session.
	ModeTrain
)

// RoundState is one round in flight: a private fan-out of tasks over the
// shared Program. The batch width K is data: a round carries its K volumes
// through one task tree, so each (node, edge) sweep loads the edge's kernel
// spectrum once for K pointwise products and the node runs one inverse
// transform per volume (the ZNNi/PZnet batching regime). Training rounds
// additionally carry the desired outputs, the loss accumulator and
// backward sums, and have K = 1; inference rounds never allocate backward
// accumulators and never touch cross-round op state, which is what lets
// many of them run concurrently.
type RoundState struct {
	p       *Program
	sr      *sched.Round
	train   bool               // ModeTrain; otherwise ModeInfer
	k       int                // batch width (volumes per round)
	batch   [][]*tensor.Tensor // batch[v] is volume v's input images
	desired []*tensor.Tensor
	nodes   []roundNode
	// operands counts, per direct group, the edges whose operand (source
	// forward image, or target backward image) is not yet published.
	operands []atomic.Int32
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
// admission — AcquireInfer for ModeInfer, the exclusive round lock for
// ModeTrain (TrainPipeline does) — and runs the round with Start/Wait.
//
// Exactly one accumulator per volume is drawn per node side that sums more
// than one part — the spectral one when the node's edges sum in the FFT
// domain, the tensor one otherwise — and backward accumulators only for
// training rounds, so forward-only rounds allocate strictly less. Inference rounds run their
// spectrum caches pooled: they never memoize, so the buffers can return to
// the spectra pools through the release hook instead of becoming per-round
// garbage.
func (p *Program) NewRound(mode Mode, batch [][]*tensor.Tensor, desired []*tensor.Tensor) (*RoundState, error) {
	train := mode == ModeTrain
	k := len(batch)
	if k == 0 {
		return nil, fmt.Errorf("train: empty round batch")
	}
	if k > 1 && train {
		return nil, fmt.Errorf("train: batch width %d on a training round (training rounds are K=1)", k)
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
	if train {
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
		train:       train,
		k:           k,
		batch:       batch,
		desired:     desired,
		nodes:       make([]roundNode, len(p.nodes)),
		operands:    make([]atomic.Int32, len(p.groupEdges)),
		outputsLeft: len(p.outputs),
	}
	for i := range p.nodes {
		ni := &p.nodes[i]
		rn := &rs.nodes[i]
		rn.fwdImgs = make([]*tensor.Tensor, k)
		rn.fwdLeft = k
		if !train {
			rn.spectra.SetPooled(true)
		}
		if ni.fwdSpectral {
			rn.fwdCSums = make([]*wsum.Sum[fft.Spectrum], k)
			for v := range rn.fwdCSums {
				rn.fwdCSums[v] = wsum.GetComplex(ni.fwdParts)
			}
		} else if ni.fwdParts > 1 {
			rn.fwdSums = make([]*wsum.Sum[*tensor.Tensor], k)
			for v := range rn.fwdSums {
				rn.fwdSums[v] = wsum.Get(ni.fwdParts)
			}
		}
		if train && ni.bwdSpectral {
			rn.bwdCSum = wsum.GetComplex(ni.bwdParts)
		} else if train && ni.bwdParts > 1 {
			rn.bwdSum = wsum.Get(ni.bwdParts)
		}
	}
	for id, n := range p.groupEdges {
		rs.operands[id].Store(n)
	}
	return rs, nil
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
		if !rs.train {
			rn.spectra.ReleaseAll()
			rn.bwdSpec.ReleaseAll()
		}
		rn.pads.Release()
	}
}

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

// fanOutForward hands node n's K published images to its out-edges. An
// edge of a direct group counts down the group's unpublished sources, and
// the last starts the group; every other edge gets a task of its own.
// Training rounds gate both on fences and FORCE (gated); forward-only
// rounds, whose admission drained every pending update, spawn at once.
func (rs *RoundState) fanOutForward(n *graph.Node, imgs []*tensor.Tensor) {
	var specs []sched.TaskSpec
	for _, e := range n.Out {
		if gr := rs.p.fwdGroup[e.ID]; gr != nil {
			if rs.operands[gr.id].Add(-1) == 0 {
				rs.gated(e.To.FwdPrio, gr.edges, func() { rs.forwardGroup(e.To, gr) })
			}
		} else if rs.train {
			rs.gated(e.To.FwdPrio, []*graph.Edge{e}, func() { rs.doForward(e, imgs) })
		} else {
			specs = append(specs, sched.TaskSpec{Prio: e.To.FwdPrio, Fn: func() { rs.doForward(e, imgs) }})
		}
	}
	rs.sr.SpawnBatch(specs)
}

// gated runs fn, which reads the kernels of edges. A forward-only round
// runs it at once. A training round wraps it in a task, counted against
// the round now and enqueued once every edge's fence reports the previous
// round's backward on that edge done; the task FORCEs each edge's pending
// update in turn, then runs fn (Algorithm 1, FORWARD-TASK + FORCE).
func (rs *RoundState) gated(prio int64, edges []*graph.Edge, fn func()) {
	if !rs.train {
		fn()
		return
	}
	wrapper := rs.sr.NewTask(sched.Work, prio, func() { rs.forceAll(prio, edges, fn) })
	left := new(atomic.Int32)
	left.Store(int32(len(edges)))
	for _, e := range edges {
		rs.p.edges[e.ID].whenBackward(rs.fenceSeq-1, func() {
			if left.Add(-1) == 0 {
				rs.p.sch.Enqueue(wrapper)
			}
		})
	}
}

// forceAll runs fn once every edge's pending update has completed, by
// chaining one FORCE per edge.
func (rs *RoundState) forceAll(prio int64, edges []*graph.Edge, fn func()) {
	if len(edges) == 0 {
		fn()
		return
	}
	sub := rs.sr.NewTask(sched.Work, prio, func() { rs.forceAll(prio, edges[1:], fn) })
	rs.p.sch.Force(rs.p.edges[edges[0].ID].pendingUpdate(), sub)
}

// forwardGroup sums direct group gr into node n's image of each volume:
// each voxel one FMA chain over every tap of every in-edge.
func (rs *RoundState) forwardGroup(n *graph.Node, gr *group) {
	var specs []sched.TaskSpec
	for v := range rs.k {
		terms := make([]conv.Term, len(gr.edges))
		for i, e := range gr.edges {
			op := e.Op.(*graph.ConvOp)
			terms[i] = conv.Term{Tr: op.Tr, Img: rs.nodes[e.From.ID].FwdImageAt(v), Ker: op.Kernel}
		}
		specs = rs.blockTasks(specs, n, n.FwdPrio, gr, terms, conv.SumForward, func(out *tensor.Tensor) {
			rs.joinForward(n, v, out)
		})
	}
	rs.sr.SpawnBatch(specs)
}

// blockTasks appends one task per block of gr's output planes, each summing
// terms into its planes of a fresh image of node n; the last calls done.
func (rs *RoundState) blockTasks(specs []sched.TaskSpec, n *graph.Node, prio int64, gr *group, terms []conv.Term,
	sum func(out *tensor.Tensor, z0, z1 int, terms []conv.Term), done func(out *tensor.Tensor)) []sched.TaskSpec {
	out := tensor.New(n.Shape)
	left := new(atomic.Int32)
	left.Store(int32(len(gr.blocks)))
	for _, b := range gr.blocks {
		specs = append(specs, sched.TaskSpec{Prio: prio, Fn: func() {
			sum(out, b[0], b[1], terms)
			if left.Add(-1) == 0 {
				done(out)
			}
		}})
	}
	return specs
}

// doForward is Algorithm 1's DO-FORWARD for an edge outside any direct
// group, over the round's volumes: one sweep of the edge (its kernel
// spectrum fetched once), then each volume joins its target's sum. The two
// arms are the two kinds of sum a node can have.
func (rs *RoundState) doForward(e *graph.Edge, imgs []*tensor.Tensor) {
	us := &rs.nodes[e.From.ID]
	vs := &rs.nodes[e.To.ID]
	if rs.p.nodes[e.To.ID].fwdSpectral {
		op := e.Op.(*graph.ConvOp)
		var done []int // volumes whose sum this task completed
		for v, prod := range op.Tr.ForwardProducts(imgs, op.Kernel, &us.spectra, !rs.train) {
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
	ctx := &graph.FwdCtx{Spectra: &us.spectra, Infer: !rs.train}
	for v, out := range graph.ForwardBatch(e.Op, imgs, ctx) {
		rs.joinForward(e.To, v, out)
	}
}

// joinForward adds one part of volume v's image at node n; the last part
// publishes it.
func (rs *RoundState) joinForward(n *graph.Node, v int, img *tensor.Tensor) {
	if sums := rs.nodes[n.ID].fwdSums; sums != nil {
		if !sums[v].Add(img) {
			return
		}
		img = sums[v].Value()
	}
	rs.finishForward(n, v, img)
}

// finishSpectral inverts volume v's completed spectral sum at edge e's
// target node and publishes the image.
func (rs *RoundState) finishSpectral(e *graph.Edge, v int) {
	sum := rs.nodes[e.To.ID].fwdCSums[v].Value()
	rs.finishForward(e.To, v, e.Op.(*graph.ConvOp).Tr.FinishForward(sum))
}

// finishForward publishes volume v's completed image at node n; the node's
// last volume triggers the downstream fan-out (or output accounting).
func (rs *RoundState) finishForward(n *graph.Node, v int, img *tensor.Tensor) {
	vs := &rs.nodes[n.ID]
	if !vs.completeFwd(v, img) {
		return
	}
	if n.IsOutput() {
		rs.outputReady()
		return
	}
	vs.mu.Lock()
	imgs := vs.fwdImgs
	vs.mu.Unlock()
	rs.fanOutForward(n, imgs)
}

// outputReady fires when one output node's forward images complete for all
// K volumes; on training rounds the last output node spawns the
// loss-gradient task (Fig. 3, dark red nodes).
func (rs *RoundState) outputReady() {
	rs.mu.Lock()
	rs.outputsLeft--
	ready := rs.outputsLeft == 0
	rs.mu.Unlock()
	if !ready || !rs.train {
		return
	}
	// Loss priority: above all backward tasks so the backward pass starts
	// immediately.
	lossPrio := int64(1 << 30)
	rs.sr.Spawn(sched.Work, lossPrio, func() {
		actual := rs.OutputsAt(0)
		loss, grads := rs.p.cfg.Loss.Eval(actual, rs.desired)
		rs.mu.Lock()
		rs.loss = loss
		rs.mu.Unlock()
		for i, o := range rs.p.outputs {
			rs.publishBackward(o, grads[i])
		}
	})
}

// publishBackward publishes node n's backward image to its in-edges
// (Algorithm 2; only training rounds, which are K=1, run backward). An
// edge summed by a direct group at its source counts down the group's
// unpublished targets; the last starts the group. Every other edge gets a
// backward task of its own.
func (rs *RoundState) publishBackward(n *graph.Node, img *tensor.Tensor) {
	rs.nodes[n.ID].setBwd(img)
	var specs []sched.TaskSpec
	for _, e := range n.In {
		if gr := rs.p.bwdGroup[e.ID]; gr == nil {
			specs = append(specs, sched.TaskSpec{Prio: e.From.BwdPrio, Fn: func() { rs.doBackward(e, img) }})
		} else if rs.operands[gr.id].Add(-1) == 0 {
			specs = rs.backwardGroup(specs, e.From, gr)
		}
	}
	rs.sr.SpawnBatch(specs)
}

// backwardGroup appends the tasks summing direct group gr into node n's
// backward image: each voxel one FMA chain over the reflected taps of every
// out-edge, reading each target's backward image padded once per halo.
// Once done, the group's edges release and the image joins n's sum.
func (rs *RoundState) backwardGroup(specs []sched.TaskSpec, n *graph.Node, gr *group) []sched.TaskSpec {
	terms := make([]conv.Term, len(gr.edges))
	for i, e := range gr.edges {
		op := e.Op.(*graph.ConvOp)
		terms[i] = conv.Term{Tr: op.Tr, Img: rs.nodes[e.To.ID].pads.Get(op.Tr.Halo()), Ker: op.Kernel}
	}
	return rs.blockTasks(specs, n, n.BwdPrio, gr, terms, conv.SumBackward, func(out *tensor.Tensor) {
		for _, e := range gr.edges {
			rs.releaseEdge(e)
		}
		rs.joinBackward(n, out)
	})
}

// doBackward is Algorithm 2's BACKWARD-TASK body for an edge outside any
// direct group. The order matters: the backward transform runs first
// (trainable transfer ops record their bias gradient during it), then the
// edge releases, then the result joins the source node's sum. An input
// node has no backward image: its edges only keep what their update needs.
func (rs *RoundState) doBackward(e *graph.Edge, img *tensor.Tensor) {
	vs := &rs.nodes[e.To.ID]
	op, isConv := e.Op.(*graph.ConvOp)
	ctx := &graph.BwdCtx{Spectra: &vs.bwdSpec, Owned: !isConv}
	switch {
	case e.From.IsInput() && isConv:
		op.Tr.KeepBackward(img, &vs.bwdSpec)
		rs.releaseEdge(e)
	case e.From.IsInput():
		e.Op.Backward(img, ctx)
		rs.releaseEdge(e)
	case rs.p.nodes[e.From.ID].bwdSpectral:
		prod := op.Tr.BackwardProduct(img, op.Kernel, &vs.bwdSpec)
		rs.releaseEdge(e)
		if sum := rs.nodes[e.From.ID].bwdCSum; sum.Add(prod) {
			rs.publishBackward(e.From, op.Tr.FinishBackward(sum.Value()))
		}
	default:
		out := e.Op.Backward(img, ctx)
		rs.releaseEdge(e)
		rs.joinBackward(e.From, out)
	}
}

// releaseEdge ends edge e's backward: a trainable op's update task is
// enqueued, then the edge's fence released. All cross-round edge state is
// settled by then — the backward transform has consumed the op's recorded
// forward inputs and this round's update sits in the edge slot where FORCE
// orders it — so a successor round's forward on e may start; the
// round-local source-sum join need not hold it back.
func (rs *RoundState) releaseEdge(e *graph.Edge) {
	if trainable, ok := e.Op.(graph.Trainable); ok {
		fwdIn, bwd := rs.nodes[e.From.ID].FwdImage(), rs.nodes[e.To.ID].BwdImage()
		opt := graph.UpdateOpts{Eta: rs.p.cfg.Eta, Momentum: rs.p.cfg.Momentum}
		upd := rs.sr.NewTask(sched.Update, graph.UpdatePriority, func() {
			trainable.Update(fwdIn, bwd, opt)
		})
		rs.p.edges[e.ID].swapUpdate(upd)
		rs.p.sch.Enqueue(upd)
	}
	rs.p.edges[e.ID].backwardDone(rs.fenceSeq)
}

// joinBackward adds one part of node n's backward image; the last part
// publishes it.
func (rs *RoundState) joinBackward(n *graph.Node, img *tensor.Tensor) {
	if sum := rs.nodes[n.ID].bwdSum; sum != nil {
		if !sum.Add(img) {
			return
		}
		img = sum.Value()
	}
	rs.publishBackward(n, img)
}
