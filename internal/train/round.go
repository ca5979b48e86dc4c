package train

import (
	"fmt"
	"sync"
	"sync/atomic"

	"znn/internal/chaos"
	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/sched"
	"znn/internal/tensor"
)

// roundNode is the per-round runtime state of one graph node. The forward
// side is K-wide — one published image, one spectrum cache and (when the
// node sums more than one part) one part sum per volume of the round's
// batch — while the backward side is singular: only training rounds run
// backward, and they carry one volume.
type roundNode struct {
	spectra []conv.SpectrumCache // per-volume forward image spectra, read by FFT out-edges
	bwdSpec conv.SpectrumCache   // backward image spectra, read by FFT in-edges
	pads    conv.PadCache        // backward image padded per halo, read by direct in-edges
	padRefs atomic.Int32         // holds on pads: the round's and its direct in-edges' pending updates
	fwdSums []*partSum           // per-volume forward parts, when the node sums several
	bwdSum  *partSum

	mu      sync.Mutex
	fwdImgs []*tensor.Tensor // per-volume forward images
	fwdLeft int              // volumes whose forward image is not yet published
	bwdImg  *tensor.Tensor
}

// completeFwd publishes volume v's forward image and reports whether it was
// the node's last outstanding volume — the point where downstream groups
// count the node as published for all K volumes at once.
func (rn *roundNode) completeFwd(v int, img *tensor.Tensor) (allDone bool) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.fwdImgs[v] = img
	rn.fwdLeft--
	return rn.fwdLeft == 0
}

func (rn *roundNode) setBwd(img *tensor.Tensor) {
	rn.mu.Lock()
	rn.bwdImg = img
	rn.mu.Unlock()
	rn.bwdSpec.Reset(img)
	rn.pads.Reset(img)
}

// partSum holds the parts of one node sum until the last arrives, then adds
// them in part order, so the sum's bits do not depend on which part
// finished first.
type partSum struct {
	mu    sync.Mutex
	parts []*tensor.Tensor
	left  int
}

func newPartSum(n int) *partSum { return &partSum{parts: make([]*tensor.Tensor, n), left: n} }

// join records part i; the call that brings the last part returns the sum,
// every other call nil.
func (s *partSum) join(i int, img *tensor.Tensor) *tensor.Tensor {
	s.mu.Lock()
	s.parts[i] = img
	s.left--
	done := s.left == 0
	s.mu.Unlock()
	if !done {
		return nil
	}
	sum := s.parts[0]
	for _, p := range s.parts[1:] {
		sum.Add(p)
	}
	return sum
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
// through one task tree, and each node sum runs per volume (the ZNNi/PZnet
// batching regime). Training rounds additionally carry the desired outputs,
// the loss accumulator and backward state, and have K = 1; inference rounds
// never allocate backward state and never touch cross-round op state,
// which is what lets many of them run concurrently.
type RoundState struct {
	p       *Program
	sr      *sched.Round
	train   bool               // ModeTrain; otherwise ModeInfer
	k       int                // batch width (volumes per round)
	batch   [][]*tensor.Tensor // batch[v] is volume v's input images
	desired []*tensor.Tensor
	nodes   []roundNode
	// operands counts, per group, the edges whose operand (source
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
// Spectrum caches run pooled — their buffers return to the spectra pools
// when the round completes instead of becoming per-round garbage — unless
// a memoizing FFT edge keeps a spectrum for its update, which may run
// after the round ends; inference rounds never memoize, so theirs are
// always pooled.
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
		rn.spectra = make([]conv.SpectrumCache, k)
		for v := range rn.spectra {
			rn.spectra[v].SetPooled(!train || !ni.fwdMemo)
		}
		rn.bwdSpec.SetPooled(!ni.bwdMemo)
		if ni.fwdParts > 1 {
			rn.fwdSums = make([]*partSum, k)
			for v := range rn.fwdSums {
				rn.fwdSums[v] = newPartSum(ni.fwdParts)
			}
		}
		if train && ni.bwdParts > 1 {
			rn.bwdSum = newPartSum(ni.bwdParts)
		}
		rn.padRefs.Store(1)
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
			for v := range rs.batch {
				rs.finishForward(node, v, rs.batch[v][i])
			}
		}
	})
}

// Wait blocks until the round's own task tree has completed — other rounds
// in flight and lazy update tasks are not waited on — then returns the
// round's pooled buffers (see release); the published images
// (Outputs/OutputsAt) stay valid. The returned error is round-local (sched
// attributes a round task's panic to its Round), so one failing round in
// flight does not poison concurrent or later rounds; update-task panics
// stay on the engine's sticky error (Program.Err).
func (rs *RoundState) Wait() error {
	rs.sr.Wait()
	rs.release()
	return rs.sr.Err()
}

// release returns the spectrum caches' pooled buffers to the spectra pools
// and drops the round's hold on the padded backward images. Called after
// the round's task tree has completed, so no task can still touch them.
func (rs *RoundState) release() {
	for i := range rs.nodes {
		rn := &rs.nodes[i]
		for v := range rn.spectra {
			rn.spectra[v].ReleaseAll()
		}
		rn.bwdSpec.ReleaseAll()
		rn.dropPads()
	}
}

// dropPads drops one hold on the node's padded backward images: the
// round's, or that of a direct in-edge's update, which reads them. Updates
// outlive Wait, so the last hold, not release, returns them to scratch.
func (rn *roundNode) dropPads() {
	if rn.padRefs.Add(-1) == 0 {
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

// fanOutForward counts node n's published images against its out-edges'
// groups; the last operand of a group starts it. Training rounds gate the
// group on its edges' fences and FORCE them (gated); forward-only rounds,
// whose admission drained every pending update, spawn at once.
func (rs *RoundState) fanOutForward(n *graph.Node) {
	var specs []sched.TaskSpec
	for _, e := range n.Out {
		gr := rs.p.fwdGroup[e.ID]
		if rs.operands[gr.id].Add(-1) != 0 {
			continue
		}
		if !rs.train {
			specs = rs.forwardGroup(specs, gr)
			continue
		}
		rs.gated(gr.prio(false), gr.edges, func() {
			if specs := rs.forwardGroup(nil, gr); len(specs) == 1 {
				specs[0].Fn() // a lone task runs inline on the gated wrapper
			} else {
				rs.sr.SpawnBatch(specs)
			}
		})
	}
	rs.sr.SpawnBatch(specs)
}

// gated runs fn, which reads the kernels of edges, in a task of a training
// round: the task is counted against the round now and enqueued once every
// edge's fence reports the previous round's backward on that edge done; it
// FORCEs each edge's pending update in turn, then runs fn (Algorithm 1,
// FORWARD-TASK + FORCE).
func (rs *RoundState) gated(prio int64, edges []*graph.Edge, fn func()) {
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

// forwardGroup appends the tasks summing group gr into its nodes' images
// of each volume: for a direct group one task per block of output planes
// writing every part's image, each voxel one FMA chain over every tap of
// every in-edge; for a spectral group one task multiply-accumulating every
// in-edge's product into one spectrum; for any other edge one task applying
// its op.
func (rs *RoundState) forwardGroup(specs []sched.TaskSpec, gr *group) []sched.TaskSpec {
	n := gr.parts[0].n
	for v := range rs.k {
		done := func(b int, out *tensor.Tensor) { rs.joinForward(gr.parts[b].n, v, gr.parts[b].idx, out) }
		switch {
		case gr.blocks != nil:
			img := func(e *graph.Edge) *tensor.Tensor { return rs.nodes[e.From.ID].FwdImageAt(v) }
			specs = rs.blockTasks(specs, gr.prio(false), gr, img, false, done)
		case gr.spectral:
			terms := make([]conv.SpecTerm, len(gr.edges))
			for i, e := range gr.edges {
				op := e.Op.(*graph.ConvOp)
				terms[i] = conv.SpecTerm{Tr: op.Tr, Ker: op.Kernel, F: op.Tr.Spectrum(&rs.nodes[e.From.ID].spectra[v])}
			}
			specs = append(specs, sched.TaskSpec{Prio: n.FwdPrio, Fn: func() {
				out := tensor.New(n.Shape)
				conv.SpectralForward(out, terms, !rs.train)
				done(0, out)
			}})
		default:
			e := gr.edges[0]
			img := rs.nodes[e.From.ID].FwdImageAt(v)
			specs = append(specs, sched.TaskSpec{Prio: n.FwdPrio, Fn: func() {
				done(0, e.Op.Forward(img, &graph.FwdCtx{Infer: !rs.train}))
			}})
		}
	}
	return specs
}

// blockTasks appends one task per block of gr's output planes, each summing
// every part's edges, each reading its operand img, into its planes of a
// fresh image per part (conv.SumNodes); the last calls done for every part.
func (rs *RoundState) blockTasks(specs []sched.TaskSpec, prio int64, gr *group, img func(*graph.Edge) *tensor.Tensor,
	bwd bool, done func(b int, out *tensor.Tensor)) []sched.TaskSpec {
	outs, terms := make([]*tensor.Tensor, len(gr.parts)), make([][]conv.Term, len(gr.parts))
	for b, pt := range gr.parts {
		outs[b] = tensor.New(pt.n.Shape)
		for _, e := range pt.edges {
			op := e.Op.(*graph.ConvOp)
			terms[b] = append(terms[b], conv.Term{Tr: op.Tr, Img: img(e), Ker: op.Kernel})
		}
	}
	left := new(atomic.Int32)
	left.Store(int32(len(gr.blocks)))
	for _, blk := range gr.blocks {
		specs = append(specs, sched.TaskSpec{Prio: prio, Fn: func() {
			conv.SumNodes(outs, blk[0], blk[1], terms, bwd)
			if left.Add(-1) == 0 {
				for b, out := range outs {
					done(b, out)
				}
			}
		}})
	}
	return specs
}

// joinForward adds one part of volume v's image at node n; the last part
// publishes the sum.
func (rs *RoundState) joinForward(n *graph.Node, v, part int, img *tensor.Tensor) {
	if sums := rs.nodes[n.ID].fwdSums; sums != nil {
		if img = sums[v].join(part, img); img == nil {
			return
		}
	}
	rs.finishForward(n, v, img)
}

// finishForward publishes volume v's completed image at node n. It first
// computes the image's spectra for n's FFT out-edges, so no group task
// transforms another node's image; the node's last volume then starts the
// downstream groups (or the output accounting).
func (rs *RoundState) finishForward(n *graph.Node, v int, img *tensor.Tensor) {
	rn := &rs.nodes[n.ID]
	rn.spectra[v].Reset(img)
	for _, e := range n.Out {
		if tr := spectralTr(e); tr != nil {
			tr.Spectrum(&rn.spectra[v])
		}
	}
	if !rn.completeFwd(v, img) {
		return
	}
	if n.IsOutput() {
		rs.outputReady()
		return
	}
	rs.fanOutForward(n)
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
// (Algorithm 2; only training rounds, which are K=1, run backward), first
// computing the image's spectra for the FFT in-edges that read them. Each
// in-edge counts down the unpublished targets of its group at the source;
// the last starts the group. An edge leaving a graph input has no group:
// the input computes no backward image.
func (rs *RoundState) publishBackward(n *graph.Node, img *tensor.Tensor) {
	rn := &rs.nodes[n.ID]
	rn.setBwd(img)
	for _, e := range n.In {
		if tr := spectralTr(e); tr != nil && (!e.From.IsInput() || tr.Memoizes()) {
			tr.Spectrum(&rn.bwdSpec)
		}
	}
	var specs []sched.TaskSpec
	for _, e := range n.In {
		if gr := rs.p.bwdGroup[e.ID]; gr == nil {
			specs = append(specs, sched.TaskSpec{Prio: e.From.BwdPrio, Fn: func() { rs.keepBackward(e, img) }})
		} else if rs.operands[gr.id].Add(-1) == 0 {
			specs = rs.backwardGroup(specs, gr)
		}
	}
	rs.sr.SpawnBatch(specs)
}

// backwardGroup appends the tasks summing group gr into its nodes'
// backward images: for a direct group one task per plane block over the
// reflected taps of every out-edge, writing every part's image and reading
// each target's backward image padded once per halo; for a spectral group
// one task multiply-accumulating every out-edge's product; for any other
// edge one task applying its op's Jacobian. Once a part's sum is done, its
// edges release and it joins its node's sum.
func (rs *RoundState) backwardGroup(specs []sched.TaskSpec, gr *group) []sched.TaskSpec {
	n := gr.parts[0].n
	done := func(b int, out *tensor.Tensor) {
		pt := gr.parts[b]
		for _, e := range pt.edges {
			rs.releaseEdge(e)
		}
		rs.joinBackward(pt.n, pt.idx, out)
	}
	switch {
	case gr.blocks != nil:
		img := func(e *graph.Edge) *tensor.Tensor { return rs.nodes[e.To.ID].pads.Get(e.Op.(*graph.ConvOp).Tr.Halo()) }
		return rs.blockTasks(specs, gr.prio(true), gr, img, true, done)
	case gr.spectral:
		terms := make([]conv.SpecTerm, len(gr.edges))
		for i, e := range gr.edges {
			op := e.Op.(*graph.ConvOp)
			terms[i] = conv.SpecTerm{Tr: op.Tr, Ker: op.Kernel, F: op.Tr.Spectrum(&rs.nodes[e.To.ID].bwdSpec)}
		}
		return append(specs, sched.TaskSpec{Prio: n.BwdPrio, Fn: func() {
			out := tensor.New(n.Shape)
			conv.SpectralBackward(out, terms)
			done(0, out)
		}})
	default:
		// A non-convolution edge is its target's only in-edge, so its op
		// may overwrite the backward image.
		e := gr.edges[0]
		img := rs.nodes[e.To.ID].BwdImage()
		return append(specs, sched.TaskSpec{Prio: n.BwdPrio, Fn: func() {
			done(0, e.Op.Backward(img, &graph.BwdCtx{Owned: true}))
		}})
	}
}

// keepBackward ends the backward of an edge leaving a graph input, which
// computes no backward image: the edge keeps only what its update needs —
// a memoizing FFT edge the target's backward spectrum, a trainable transfer
// the bias gradient its Backward records — and releases.
func (rs *RoundState) keepBackward(e *graph.Edge, img *tensor.Tensor) {
	if op, ok := e.Op.(*graph.ConvOp); ok {
		op.Tr.KeepBackward(&rs.nodes[e.To.ID].bwdSpec)
	} else {
		e.Op.Backward(img, &graph.BwdCtx{Owned: true})
	}
	rs.releaseEdge(e)
}

// releaseEdge ends edge e's backward: a trainable op's update task is
// enqueued, then the edge's fence released. All cross-round edge state is
// settled by then — the backward transform has consumed the op's recorded
// forward inputs and this round's update sits in the edge slot where FORCE
// orders it — so a successor round's forward on e may start; the
// round-local source-sum join need not hold it back. A direct edge's update
// reads its target's padded backward image (PadCache), as backward does.
func (rs *RoundState) releaseEdge(e *graph.Edge) {
	if trainable, ok := e.Op.(graph.Trainable); ok {
		fwdIn, bwd := rs.nodes[e.From.ID].FwdImage(), rs.nodes[e.To.ID].BwdImage()
		opt := graph.UpdateOpts{Eta: rs.p.cfg.Eta, Momentum: rs.p.cfg.Momentum}
		fn := func() { trainable.Update(fwdIn, bwd, opt) }
		if rs.p.fwdGroup[e.ID].blocks != nil {
			to := &rs.nodes[e.To.ID]
			to.padRefs.Add(1)
			fn = func() {
				trainable.Update(fwdIn, to.pads.Get(e.Op.(*graph.ConvOp).Tr.Halo()), opt)
				to.dropPads()
			}
		}
		upd := rs.sr.NewTask(sched.Update, graph.UpdatePriority, fn)
		rs.p.edges[e.ID].swapUpdate(upd)
		rs.p.sch.Enqueue(upd)
	}
	rs.p.edges[e.ID].backwardDone(rs.fenceSeq)
}

// joinBackward adds one part of node n's backward image; the last part
// publishes the sum.
func (rs *RoundState) joinBackward(n *graph.Node, part int, img *tensor.Tensor) {
	if sum := rs.nodes[n.ID].bwdSum; sum != nil {
		if img = sum.join(part, img); img == nil {
			return
		}
	}
	rs.publishBackward(n, img)
}

// spectralTr returns the transformer of an FFT convolution edge, or nil.
func spectralTr(e *graph.Edge) *conv.Transformer {
	if op, ok := e.Op.(*graph.ConvOp); ok && op.Tr.Method().IsFFT() {
		return op.Tr
	}
	return nil
}
