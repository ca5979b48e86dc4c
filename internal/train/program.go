// Package train implements ZNN's gradient-learning engine: it compiles a
// computation graph into the task dependency graph of Section V and
// executes rounds with the scheduler of Section VI.
//
// The execution core is split into two layers:
//
//   - Program is the immutable compiled form of a graph: topology, edge
//     transformers and weights, the grouping of every node's sums,
//     scheduler priorities, and the shared worker pool. One Program is
//     compiled per network and never changes shape after Compile (weights
//     mutate only through training rounds, which are exclusive).
//   - RoundState (round.go) is everything one round in flight mutates:
//     per-node part sums, spectrum caches, forward/backward images, the
//     loss accumulator and the round-scoped task fan-out. Both kinds of
//     round — K-wide inference, K=1 training — are built by the one
//     constructor, Program.NewRound, and run the one forward sweep over
//     their volumes: the batch width K is the length of a slice, 1 outside
//     inference, never a code path. Training sessions hold the Program's
//     round lock exclusively; forward-only inference rounds hold it shared,
//     so N of them run concurrently on the one scheduler and mempool — the
//     regime ZNNi (Zlateski et al., 2016) shows maximizes CPU inference
//     throughput.
//
// Each training round (one stochastic gradient iteration) proceeds as in
// the paper: a data-provider task publishes the input images and starts the
// first forward tasks; forward tasks FORCE their edges' previous update
// tasks, apply the edge operations, and produce the target node's image,
// whose completion fans out the next layer's forward tasks; when every
// output node completes, the loss-gradient task seeds the backward pass;
// backward tasks enqueue update tasks at the lowest priority and produce
// source-node backward images. Update tasks therefore run either lazily on
// idle workers or are forced just before the next round's forward pass
// touches their edge. Input nodes compute no backward image: the edges
// leaving them only enqueue their update once the target's backward image
// is published.
//
// # Node tasks
//
// Every node sum runs as node tasks, as in PZnet. Compile splits a node's
// in-edges into groups (graph.SumParts): direct convolution edges whose
// sources share a shape (every in-edge of a layered direct net), FFT edges
// that are conv.SpectralCompatible (every in-edge of a layered FFT net),
// and any other edge alone. Once all of a group's sources are published,
// the node runs the group per volume: a direct group one task per (volume,
// block of output planes), each voxel a single FMA chain over every tap of
// every in-edge in edge order (conv.SumForward), written straight into the
// node's image; a spectral group one task per volume that multiply-
// accumulates F(x_i)·F(w_i) in edge order into one pooled spectrum and
// inverts it once (conv.SpectralForward, the f′ inverse transforms of
// Table II); any other edge one task per volume applying its op. On
// training rounds the group's wrapper waits on every in-edge's fence and
// FORCEs each in-edge's pending update first. The spectra a spectral group
// reads are computed by the task that publishes the source image, before
// fan-out, so no node task computes or waits on another node's transform.
//
// Two nodes' direct groups over the same sources in the same order, with
// kernels of the same shapes and sparsity — any two nodes of a layered
// direct net — run as a pair: one operand count, one gate, one task per
// (volume, plane block) writing both images (conv.SumNodes).
//
// Backward is the mirror image over a node's out-edges: once every target
// of a group has published its backward image — padded once per halo, or
// transformed once per transform shape, in caches the target owns — the
// node runs Σ_j full(g_j, w_ij) (conv.SumBackward, conv.SpectralBackward;
// nodes with the same targets pair); when the group completes, each
// out-edge enqueues its update and releases its fence, so backward still
// reads w_ij before the update writes it (Algorithm 2). A direct edge's
// update reads the target's padded image too. A node whose sum has several
// groups adds their partial images in group order once the last arrives.
// Every sum therefore has a fixed order, and training is bitwise
// reproducible at any worker count — where ZNN's wait-free sum (Algorithm
// 4, package wsum) adds in arrival order.
//
// # Round boundaries and per-edge fencing
//
// Consecutive training rounds are ordered per edge, not per network. The
// only cross-round state a round N+1 forward task on edge e can touch is
// edge-local: e's weights (mutated by round N's update task), the op's
// recorded Jacobian inputs (consumed by round N's backward task on e), and
// the transformer's kernel-spectrum memo (invalidated by e's update). All
// of it is settled the moment round N's backward task on e has run — the
// backward transform has consumed the recorded forward state and the
// round-N update task has been swapped into the edge's slot, where FORCE
// orders it before any later forward on e. That per-edge fence is the one
// ordering every training round runs under: round N+1's forward task on e
// is withheld until edge e's round-N backward completed, and nothing else.
//
// Training therefore has a single path — a session (Engine.StartPipeline)
// whose rounds are Submitted and Waited — and overlap is a consequence of
// how the caller waits, not a mode of the engine. Waiting each round before
// submitting the next (what Engine.Round does) finds every fence already
// released, so admission is immediate and rounds run strictly one after
// another; submitting round N+1 before waiting round N lets the tail of
// N's backward sweep and its lazy update drain overlap the head of N+1's
// forward sweep. Per-edge arithmetic is identical either way.
package train

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/ops"
	"znn/internal/plan"
	"znn/internal/sched"
	"znn/internal/tensor"
)

// Config parameterizes a Program.
type Config struct {
	// Workers is the number of scheduler workers; 0 (and any value < 1)
	// defaults to runtime.NumCPU() — the paper's scheduler exists to use
	// every core, so running it single-threaded by omission was a trap.
	Workers int
	// Loss is the training loss (default: squared).
	Loss ops.Loss
	// Eta is the learning rate.
	Eta float64
	// Momentum is the classical momentum coefficient.
	Momentum float64
	// Precision selects the element type of the packed spectral pipeline
	// for every FFT convolution edge in the graph: the default PrecF64
	// computes spectra in float64/complex128, bit-compatible with the
	// pre-precision engine; PrecF32 converts images to float32 at the
	// transform boundary and runs transforms, pointwise products and
	// spectral accumulation in complex64 — half the spectrum memory and
	// bandwidth, float32 accuracy. Compile applies it to the graph's
	// transformers before any round runs, so one built network trains at
	// whichever precision the config asks for.
	Precision conv.Precision
	// Plan, when non-nil, is a whole-network execution plan: Compile
	// resolves every convolution edge's layer geometry against it and
	// rebuilds the edge's transformer to the planned (method, precision)
	// instead of applying the global Precision. Edges whose geometry the
	// plan does not cover fall back to the global Precision. The plan's
	// fused width K is advisory to round builders.
	Plan *plan.Plan
}

func (c *Config) fillDefaults() {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.Loss == nil {
		c.Loss = ops.SquaredLoss{}
	}
	if c.Eta == 0 {
		c.Eta = 0.01
	}
}

// nodeInfo is the compiled, immutable per-node execution plan: how many
// parts each of its sums adds and whether its spectra outlive a round. All
// mutable per-round state lives in RoundState.
type nodeInfo struct {
	n *graph.Node
	// fwdParts and bwdParts count the groups of the node's forward and
	// backward sums. A sum of one part needs no part sum; input nodes have
	// no backward sum.
	fwdParts, bwdParts int
	// fwdMemo and bwdMemo report that a memoizing FFT edge keeps the
	// node's forward (backward) image spectrum for its update, so a
	// training round may not return it to the pool.
	fwdMemo, bwdMemo bool
}

// part is one part of node n's sum (graph.SumParts) over its in-edges
// (forward) or out-edges (backward).
type part struct {
	n     *graph.Node
	idx   int // its place in n's sum
	edges []*graph.Edge
}

// group is one part, or a pair of direct parts (pairParts), run as one set
// of tasks: a direct group one task per (volume, block of output planes)
// writing every part's image; a spectral group and any other edge, a group
// of one, one task per volume.
type group struct {
	id       int           // index of the round's count of unpublished operands
	parts    []part        // one, or a direct pair
	edges    []*graph.Edge // every part's edges in order
	spectral bool
	blocks   [][2]int // direct: output plane ranges [z0, z1)
}

// blockWork is the number of multiply-adds a node task aims for: enough to
// amortize the task, so small requests are not cut into per-plane slivers.
const blockWork = 1 << 20

// appendParts appends the parts of n's sum over edges; it returns their number.
func appendParts(parts []part, n *graph.Node, edges []*graph.Edge) ([]part, int) {
	sum := graph.SumParts(edges)
	for i, es := range sum {
		parts = append(parts, part{n: n, idx: i, edges: es})
	}
	return parts, len(sum)
}

// prio is the group's forward (bwd: backward) task priority, the higher of
// its first and last nodes': a pair runs no later than either node alone.
func (gr *group) prio(bwd bool) int64 {
	a, b := gr.parts[0].n, gr.parts[len(gr.parts)-1].n
	if bwd {
		return max(a.BwdPrio, b.BwdPrio)
	}
	return max(a.FwdPrio, b.FwdPrio)
}

// direct reports whether a part runs the direct node kernel.
func (pt part) direct() bool {
	op, ok := pt.edges[0].Op.(*graph.ConvOp)
	return ok && !op.Tr.Method().IsFFT()
}

// pairParts reports whether two direct parts can run as one group: nodes of
// one shape summing the same operands (sources or targets) in order, with
// kernels of the same shapes and sparsity.
func pairParts(a, b part, operand func(*graph.Edge) *graph.Node) bool {
	if !a.direct() || !b.direct() || a.n.Shape != b.n.Shape || len(a.edges) != len(b.edges) {
		return false
	}
	for i, e := range a.edges {
		x, y := e.Op.(*graph.ConvOp), b.edges[i].Op.(*graph.ConvOp)
		if operand(e) != operand(b.edges[i]) || x.Kernel.S != y.Kernel.S || x.Sp != y.Sp {
			return false
		}
	}
	return true
}

// groups makes the groups of parts, pairing each direct part with the first
// later one it pairs with, and returns each edge's group.
func (p *Program) groups(parts []part, operand func(*graph.Edge) *graph.Node) []*group {
	of := make([]*group, len(p.g.Edges))
	for i, pt := range parts {
		if of[pt.edges[0].ID] != nil { // paired with an earlier part
			continue
		}
		gr := &group{id: len(p.groupEdges), parts: []part{pt}}
		for _, q := range parts[i+1:] {
			if of[q.edges[0].ID] == nil && pairParts(pt, q, operand) {
				gr.parts = append(gr.parts, q)
				break
			}
		}
		for _, q := range gr.parts {
			gr.edges = append(gr.edges, q.edges...)
		}
		for _, e := range gr.edges {
			of[e.ID] = gr
		}
		p.groupEdges = append(p.groupEdges, int32(len(gr.edges)))
		if gr.spectral = spectralTr(pt.edges[0]) != nil; !pt.direct() {
			continue
		}
		taps := 0 // of the whole group: a pair's task does both parts' work
		for _, e := range gr.edges {
			taps += e.Op.(*graph.ConvOp).Kernel.S.Volume()
		}
		out := pt.n.Shape
		per := max(1, blockWork/(out.X*out.Y*taps))
		n := (out.Z + per - 1) / per
		for b := range n {
			gr.blocks = append(gr.blocks, [2]int{b * out.Z / n, (b + 1) * out.Z / n})
		}
	}
	return of
}

// memoizes reports whether e is an FFT edge that keeps its phase spectra.
func memoizes(e *graph.Edge) bool {
	tr := spectralTr(e)
	return tr != nil && tr.Memoizes()
}

// edgeState tracks the edge's pending update task across rounds. It is the
// one piece of mutable state that lives on the Program rather than a
// RoundState: update tasks are deliberately cross-round (Algorithm 1's
// FORCE runs round N's update just before round N+1's forward touches the
// edge), and they mutate weights, which is why training rounds are
// exclusive.
type edgeState struct {
	e  *graph.Edge
	mu sync.Mutex
	// update is the update task created by the previous round's backward
	// pass; the next forward pass forces it (Algorithm 1).
	update *sched.Task
	// bwdSeq is the per-edge training fence: the highest training round
	// whose backward task on this edge has completed
	// (or been force-released by the round's completion backstop). waiters
	// are the callbacks — enqueues of the next round's gated forward
	// wrappers — parked until bwdSeq reaches their round's predecessor.
	bwdSeq  uint64
	waiters []fenceWaiter
}

// fenceWaiter parks one callback until the edge's fence reaches seq.
type fenceWaiter struct {
	seq uint64
	fn  func()
}

func (es *edgeState) swapUpdate(t *sched.Task) *sched.Task {
	es.mu.Lock()
	defer es.mu.Unlock()
	prev := es.update
	es.update = t
	return prev
}

func (es *edgeState) pendingUpdate() *sched.Task {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.update
}

// backwardDone advances the edge's fence to seq and fires every waiter it
// admits. Called once per edge from round seq's backward task (the normal
// release, as early as the cross-round state is settled) and again from the
// round's completion backstop (so an errored round that never reached this
// edge's backward cannot wedge its successor); the second call is a no-op.
func (es *edgeState) backwardDone(seq uint64) {
	es.mu.Lock()
	if seq <= es.bwdSeq {
		es.mu.Unlock()
		return
	}
	es.bwdSeq = seq
	var ready []func()
	kept := es.waiters[:0]
	for _, w := range es.waiters {
		if w.seq <= seq {
			ready = append(ready, w.fn)
		} else {
			kept = append(kept, w)
		}
	}
	es.waiters = kept
	es.mu.Unlock()
	for _, fn := range ready {
		fn()
	}
}

// whenBackward runs fn once the edge's fence has reached seq — immediately
// on the calling thread when it already has, otherwise from whichever
// backwardDone admits it.
func (es *edgeState) whenBackward(seq uint64, fn func()) {
	es.mu.Lock()
	if es.bwdSeq >= seq {
		es.mu.Unlock()
		fn()
		return
	}
	es.waiters = append(es.waiters, fenceWaiter{seq: seq, fn: fn})
	es.mu.Unlock()
}

// Program is the immutable compiled form of a computation graph: topology,
// edge transformers, weights, cached kernel spectra, and the shared
// scheduler. Rounds execute against it through RoundState values; any
// number of forward-only rounds may be in flight at once, while training
// rounds (which mutate weights) are exclusive.
type Program struct {
	cfg     Config
	g       *graph.Graph
	sch     *sched.Engine
	inputs  []*graph.Node
	outputs []*graph.Node
	nodes   []nodeInfo
	edges   []*edgeState
	// fwdGroup and bwdGroup map an edge ID to the group summing it at its
	// target (forward) and at its source (backward); an edge leaving a graph
	// input has no backward group.
	fwdGroup, bwdGroup []*group
	groupEdges         []int32 // edges per group, indexed by group id

	// roundMu orders rounds: training sessions take it exclusively (their
	// rounds mutate cross-round op state), inference rounds take it shared. Weight-mutating update tasks are
	// drained before the first shared round is admitted (see AcquireInfer).
	roundMu sync.RWMutex
	// trainSeq numbers training rounds (RoundState.fenceSeq) for the
	// per-edge fences; guarded by roundMu held exclusively.
	trainSeq uint64
}

// Compile turns the graph into an executable Program. The graph must
// validate; nodes with multiple incoming edges must receive only
// convolution edges (the paper's structural constraint for summing nodes:
// edge outputs entering a concurrent sum must be freshly allocated images,
// which convolution edges guarantee).
func Compile(g *graph.Graph, cfg Config) (*Program, error) {
	cfg.fillDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, n := range g.Nodes {
		if len(n.In) > 1 {
			for _, e := range n.In {
				if _, ok := e.Op.(*graph.ConvOp); !ok {
					return nil, fmt.Errorf(
						"train: node %s has %d convergent edges but edge %s is %s (convergent edges must be convolutions)",
						n.Name, len(n.In), e, e.Op.Kind())
				}
			}
		}
	}
	// Apply the program's execution plan — or, absent one, the global
	// precision — to every conv edge before the grouping below: method and
	// precision are part of SpectralCompatible, so they must be settled
	// first. The config is authoritative for precision — compiling a graph
	// previously used at another precision resets its edges, so a
	// default-precision program is always the bit-compatible float64 one.
	// Plan assignments are per layer group (keyed by the edge-derivable
	// layer geometry), so every in-edge of a summing node receives the same
	// (method, precision) and a planned FFT layer sums as one group.
	for _, e := range g.Edges {
		op, ok := e.Op.(*graph.ConvOp)
		if !ok {
			continue
		}
		if cfg.Plan != nil {
			if a, found := cfg.Plan.Lookup(graph.ConvGeom(e)); found {
				op.Tr.SetMethodPrec(a.Method, a.Precision)
				continue
			}
		}
		op.Tr.SetPrecision(cfg.Precision)
	}
	g.ComputePriorities()
	p := &Program{
		cfg:     cfg,
		g:       g,
		sch:     sched.New(cfg.Workers, nil),
		inputs:  g.Inputs(),
		outputs: g.Outputs(),
	}
	p.nodes = make([]nodeInfo, len(g.Nodes))
	var fwd, bwd []part
	for i, n := range g.Nodes {
		ni := nodeInfo{n: n, fwdMemo: slices.ContainsFunc(n.Out, memoizes), bwdMemo: slices.ContainsFunc(n.In, memoizes)}
		fwd, ni.fwdParts = appendParts(fwd, n, n.In)
		if !n.IsInput() {
			bwd, ni.bwdParts = appendParts(bwd, n, n.Out)
		}
		p.nodes[i] = ni
	}
	p.fwdGroup = p.groups(fwd, func(e *graph.Edge) *graph.Node { return e.From })
	p.bwdGroup = p.groups(bwd, func(e *graph.Edge) *graph.Node { return e.To })
	p.edges = make([]*edgeState, len(g.Edges))
	for i, e := range g.Edges {
		p.edges[i] = &edgeState{e: e}
	}
	return p, nil
}

// Err surfaces the engine's sticky scheduler error (a panicked update task
// means partially applied weights — every later result is suspect).
// Callers composing rounds via NewRound should check it after waits.
func (p *Program) Err() error { return p.sch.Err() }

// InputShapes returns the required shape of each round input, in
// g.Inputs() order.
func (p *Program) InputShapes() []tensor.Shape {
	out := make([]tensor.Shape, len(p.inputs))
	for i, n := range p.inputs {
		out[i] = n.Shape
	}
	return out
}

// OutputShapes returns the shape of each round output, in g.Outputs()
// order.
func (p *Program) OutputShapes() []tensor.Shape {
	out := make([]tensor.Shape, len(p.outputs))
	for i, n := range p.outputs {
		out[i] = n.Shape
	}
	return out
}

// AcquireInfer admits forward-only rounds and returns the matching release
// function. Engine.Infer takes it per call; a streaming executor that
// composes its own round lifecycle over NewRound (the whole-volume tiler)
// acquires once, keeps a bounded window of fused rounds in flight
// (RoundState.Start/Wait), and releases when the stream ends — instead of
// paying the pending-update drain check per block. Admissions coexist.
//
// Normally it takes the round lock shared, first making sure no lazily
// pending update task can mutate weights while inference rounds are in
// flight (the drain runs under the exclusive lock so it cannot race with a
// training round spawning new updates, and the admission loop re-checks
// under the shared lock). Sustained training leaves fresh lazy updates
// after every round, which could starve that retry loop forever — so after
// a few attempts the round is admitted holding the exclusive lock instead:
// serialized with training but guaranteed to make progress.
func (p *Program) AcquireInfer() (release func()) {
	for attempt := 0; attempt < 3; attempt++ {
		p.roundMu.RLock()
		if _, upd := p.sch.Pending(); upd == 0 {
			return p.roundMu.RUnlock
		}
		p.roundMu.RUnlock()
		p.roundMu.Lock()
		p.sch.DrainUpdates()
		p.roundMu.Unlock()
	}
	p.roundMu.Lock()
	p.sch.DrainUpdates()
	return p.roundMu.Unlock
}
