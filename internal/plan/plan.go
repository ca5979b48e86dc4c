// Package plan is the one place a convolution layer is priced and its
// method chosen. It implements whole-network execution planning in the
// ZNNi style: instead of tuning every convolution edge in isolation, the
// planner enumerates per-layer (method, precision) assignments together
// with the fused batch width K, costs each candidate with the Table-II
// model, estimates the pooled spectrum footprint of each candidate, and
// picks the cheapest plan whose estimated peak fits a memory budget.
//
// # Objectives
//
// Config.Training selects what a layer's cost counts. The inference
// objective (the default) prices the K-fused forward pass, with the kernel
// spectrum streaming amortized over K, under the byte budget. The training
// objective prices the three phases of one training round (forward,
// backward, kernel gradient) at K=1: the per-layer direct-vs-FFT
// autotuning of ZNN §IV, which the znn package runs for Config.Conv =
// Autotune.
//
// # Plan format
//
// A Plan is one assignment per convolutional layer plus a network-wide
// fused batch width:
//
//   - K — volumes per fused inference round. All layers share one K (the
//     round machinery is K-wide end to end); larger K amortizes kernel
//     spectrum streaming but multiplies every pooled buffer count.
//   - Layers[i] — the i-th conv layer's geometry (input shape, kernel,
//     sparsity, fan-in f, fan-out f′, kernel density), its chosen
//     conv.Method and conv.Precision, the modeled per-volume cost
//     (arbitrary units), and the estimated pooled bytes at width K.
//   - PeakBytes — the sum of the per-layer byte estimates: a deliberate
//     upper bound on what the spectra pools (mempool.Spectra +
//     mempool.Spectra32) can have live during one fused round.
//
// # Budget semantics
//
// The budget bounds the *estimated pooled spectrum footprint of one fused
// inference round*: node image-spectrum caches (K·f buffers per FFT
// layer, live until the round's ReleaseAll), spectral-sum accumulators
// (K·f′ buffers), in-flight pointwise products (bounded by the worker
// count), and the cached kernel spectra (charged as 2·f·f′ buffers per FFT
// layer, checked out of the pool for the engine's lifetime and independent
// of K; each edge transformer now holds one, so the term over-counts by
// f·f′ — kept because halving it changes the plans it picks). Buffer sizes are
// rounded up to the allocator's power-of-two classes (mempool.ClassSize),
// exactly as the pools charge them. GC-managed memory — images, memo
// slots, tensor-sum scratch — is not pooled and not counted. Because the
// estimate is an upper bound, a plan that fits the budget keeps measured
// PeakLiveBytes within it; running N rounds in flight multiplies the
// round-scoped terms by N (kernel spectra are shared).
//
// Plans are deterministic: the same geometries, budget and configuration
// always produce the same Plan.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

// Config parameterizes a planning run. The zero value plans an unbounded
// (budget-free) network for inference over {Direct, FFT} × {f64, f32} at
// K ∈ {1, 2, 4, 8}.
type Config struct {
	// Budget bounds the estimated pooled spectrum bytes of one fused
	// round; 0 means unconstrained.
	Budget int64
	// MaxK caps the fused batch width; the planner enumerates powers of
	// two up to it. 0 means 8.
	MaxK int
	// Training selects the training objective: every layer is priced by
	// the Table-II totals of one training round at K=1 (MaxK is ignored)
	// instead of by the K-fused forward pass.
	Training bool
	// Precisions restricts the precision choices; nil means {f64, f32}.
	Precisions []conv.Precision
	// Methods restricts the method choices; nil means {Direct, FFT}.
	Methods []conv.Method
	// Workers bounds the number of simultaneously in-flight pointwise
	// product buffers in the byte model; 0 means 1.
	Workers int
	// Rounds is the number of fused rounds simultaneously in flight the
	// byte model charges for; 0 means 1. Streaming executors with a
	// bounded window (tile.Run) keep Window rounds' round-scoped buffers
	// — image-spectrum caches, accumulators, in-flight products — live at
	// once, while the cached kernel spectra are shared across rounds.
	Rounds int
}

// Assignment is one layer's planned execution: its geometry and the chosen
// (method, precision) with the planner's cost and byte estimates.
type Assignment struct {
	Layer     int
	Geom      conv.LayerGeom
	Method    conv.Method
	Precision conv.Precision
	Cost      float64 // modeled per-volume forward cost
	Bytes     int64   // estimated pooled spectrum bytes at width K
}

// Plan is a whole-network execution plan. Build and Forced produce it;
// train.Compile consumes it via Lookup.
type Plan struct {
	K         int
	Layers    []Assignment
	Cost      float64 // total modeled per-volume cost
	PeakBytes int64   // Σ layer byte estimates (upper bound for one round)
	Budget    int64   // the budget it was planned under (0 = unconstrained)

	// Block-choice fields, set by BuildBlocked (zero otherwise): the
	// chosen per-block output and input shapes, the halo-waste fraction
	// 1 − BlockOut.Volume()/BlockIn.Volume(), and the modeled cost per
	// fresh output voxel the candidate was scored by.
	BlockOut     tensor.Shape
	BlockIn      tensor.Shape
	HaloWaste    float64
	CostPerVoxel float64

	byGeom map[geomKey]Assignment
}

// geomKey identifies a layer geometry for Lookup, excluding Density: the
// planner keys assignments by the structural geometry so a kernel whose
// zero pattern drifts during training still resolves to its planned edge.
type geomKey struct {
	in, kernel tensor.Shape
	sp         tensor.Sparsity
	f, fPrime  int
}

func keyOf(g conv.LayerGeom) geomKey {
	return geomKey{in: g.In, kernel: g.Kernel, sp: g.Sp, f: g.F, fPrime: g.FPrime}
}

// option is one (method, precision) candidate for a layer.
type option struct {
	method conv.Method
	prec   conv.Precision
	cost   float64
	bytes  int64
}

// Build plans the network described by geoms (one entry per conv layer, in
// execution order) under cfg. It returns an error only when no assignment
// at any K fits the budget.
func Build(geoms []conv.LayerGeom, cfg Config) (*Plan, error) { return build(geoms, cfg, 0) }

// build is Build for a BuildBlocked candidate whose grid has blocks blocks
// (0 for none): at width K it charges at most the grid's ⌈blocks/K⌉ rounds.
func build(geoms []conv.LayerGeom, cfg Config, blocks int) (*Plan, error) {
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = 8
	}
	if cfg.Training {
		maxK = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	methods := cfg.Methods
	if methods == nil {
		methods = []conv.Method{conv.Direct, conv.FFT}
	}
	precs := cfg.Precisions
	if precs == nil {
		precs = []conv.Precision{conv.PrecF64, conv.PrecF32}
	}

	var best *Plan
	for k := 1; k <= maxK; k *= 2 {
		ck := cfg
		if ck.Rounds = max(cfg.Rounds, 1); blocks > 0 {
			ck.Rounds = min(ck.Rounds, (blocks+k-1)/k)
		}
		cand, ok := planAtK(geoms, ck, methods, precs, k, workers)
		if !ok {
			continue
		}
		if best == nil || better(cand, best) {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no assignment fits budget %d bytes (unconstrained minimum is %d)",
			cfg.Budget, minBytes(geoms, cfg, methods, precs, workers))
	}
	best.index()
	return best, nil
}

// better reports whether plan a beats plan b: lower cost, then lower
// footprint, then smaller K — a deterministic total order.
func better(a, b *Plan) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.PeakBytes != b.PeakBytes {
		return a.PeakBytes < b.PeakBytes
	}
	return a.K < b.K
}

// planAtK finds the min-cost assignment at a fixed K, greedily repairing
// over-budget picks by the cheapest cost-per-byte-saved swap.
func planAtK(geoms []conv.LayerGeom, cfg Config, methods []conv.Method, precs []conv.Precision, k, workers int) (*Plan, bool) {
	opts := make([][]option, len(geoms))
	pick := make([]int, len(geoms))
	for i, g := range geoms {
		opts[i] = layerOptions(g, cfg, methods, precs, k, workers)
		if len(opts[i]) == 0 {
			return nil, false
		}
		pick[i] = cheapest(opts[i])
	}

	total := func() (cost float64, bytes int64) {
		for i := range geoms {
			o := opts[i][pick[i]]
			cost += o.cost
			bytes += o.bytes
		}
		return
	}

	cost, bytes := total()
	if cfg.Budget > 0 {
		for bytes > cfg.Budget {
			// Best swap: the option change that sheds bytes at the lowest
			// cost increase per byte saved. Deterministic tie-breaks:
			// larger savings, then lower layer index, then option order.
			bestLayer, bestOpt := -1, -1
			var bestRatio float64
			var bestSaved int64
			for i := range geoms {
				cur := opts[i][pick[i]]
				for j, o := range opts[i] {
					saved := cur.bytes - o.bytes
					if saved <= 0 {
						continue
					}
					ratio := (o.cost - cur.cost) / float64(saved)
					if bestLayer < 0 || ratio < bestRatio ||
						(ratio == bestRatio && saved > bestSaved) {
						bestLayer, bestOpt = i, j
						bestRatio, bestSaved = ratio, saved
					}
				}
			}
			if bestLayer < 0 {
				return nil, false // nothing left to shed at this K
			}
			pick[bestLayer] = bestOpt
			cost, bytes = total()
		}
	}

	p := &Plan{K: k, Cost: cost, PeakBytes: bytes, Budget: cfg.Budget}
	for i, g := range geoms {
		o := opts[i][pick[i]]
		p.Layers = append(p.Layers, Assignment{
			Layer: i, Geom: g, Method: o.method, Precision: o.prec,
			Cost: o.cost, Bytes: o.bytes,
		})
	}
	return p, true
}

// cheapest returns the index of the min-cost option (ties: fewer bytes,
// then option order — which is the caller's deterministic method order).
func cheapest(opts []option) int {
	best := 0
	for i, o := range opts {
		if o.cost < opts[best].cost ||
			(o.cost == opts[best].cost && o.bytes < opts[best].bytes) {
			best = i
		}
	}
	return best
}

// layerOptions enumerates the (method, precision) candidates of one layer,
// deduplicated (non-FFT methods normalize precision to f64, so they yield
// one option regardless of the precision list).
func layerOptions(g conv.LayerGeom, cfg Config, methods []conv.Method, precs []conv.Precision, k, workers int) []option {
	var out []option
	seen := map[option]bool{}
	for _, m := range methods {
		for _, p := range precs {
			if m != conv.FFT {
				p = conv.PrecF64
			}
			o := option{method: m, prec: p}
			if seen[o] {
				continue
			}
			seen[o] = true
			o.cost = layerCost(g, m, p, k, cfg.Training)
			o.bytes = LayerBytesRounds(g, m, p, k, workers, cfg.Rounds)
			out = append(out, o)
		}
	}
	// Stable deterministic order: by the caller's method order first (the
	// loop already yields that), kept as-is.
	return out
}

// layerCost returns the per-volume cost of running the layer with
// (m, prec): under the training objective, trainCost; otherwise the
// forward cost in a K-fused round plus, for spectral methods, the
// kernel-spectrum streaming term amortized over the K pointwise products
// it feeds ("one kernel-spectrum fetch per edge sweep").
func layerCost(g conv.LayerGeom, m conv.Method, prec conv.Precision, k int, training bool) float64 {
	if training {
		return trainCost(g, m, prec)
	}
	c := forwardCost(g, m, prec)
	if m.IsFFT() {
		hv := float64(fft.PackedVolume(g.TransformShape()))
		c += 2 * float64(g.F) * float64(g.FPrime) * hv / float64(k)
	}
	return c
}

// LayerBytes estimates the pooled spectrum bytes a layer holds during one
// K-fused inference round with (m, prec): K·f node image-spectrum cache
// buffers (live until the round's ReleaseAll), K·f′ spectral-sum
// accumulators, up to `workers` in-flight pointwise products, and the
// layer's cached kernel spectra, charged as 2·f·f′ (checked out of the pool
// for the engine's lifetime), each of the allocator's power-of-two class
// capacity. Each edge transformer holds one kernel spectrum since the
// backward pass multiplies by its conjugate instead of a reflected copy,
// so that term over-counts by f·f′; halving it would move infer_cube_f32's
// plan from K=1 to K=2 at the same 58³ block, a change of behaviour this
// model does not yet justify by measurement. Spatial methods use
// no pooled spectra and return 0.
func LayerBytes(g conv.LayerGeom, m conv.Method, prec conv.Precision, k, workers int) int64 {
	return LayerBytesRounds(g, m, prec, k, workers, 1)
}

// LayerBytesRounds is LayerBytes with `rounds` fused rounds in flight
// (rounds < 1 means 1): the round-scoped terms — image-spectrum caches,
// accumulators, in-flight products — multiply by the round count, while the
// kernel spectra are checked out once for the engine's lifetime and shared.
func LayerBytesRounds(g conv.LayerGeom, m conv.Method, prec conv.Precision, k, workers, rounds int) int64 {
	if !m.IsFFT() {
		return 0
	}
	if rounds < 1 {
		rounds = 1
	}
	ms := g.TransformShape()
	n := fft.PackedVolume(ms)
	es := int64(16) // complex128
	if prec == conv.PrecF32 {
		es = 8 // complex64
	}
	buf := int64(mempool.ClassSize(n)) * es
	inflight := k * g.F * g.FPrime
	if workers < inflight {
		inflight = workers
	}
	kernels := 2 * g.F * g.FPrime // over-counts by f·f′ (see LayerBytes)
	return buf * int64(rounds*(k*g.F+k*g.FPrime+inflight)+kernels)
}

// minBytes returns the smallest achievable footprint over all K (used for
// the infeasibility error message): K=1 minimizes every per-layer one.
func minBytes(geoms []conv.LayerGeom, cfg Config, methods []conv.Method, precs []conv.Precision, workers int) int64 {
	var total int64
	for _, g := range geoms {
		layerMin := int64(math.MaxInt64)
		for _, o := range layerOptions(g, cfg, methods, precs, 1, workers) {
			layerMin = min(layerMin, o.bytes)
		}
		total += layerMin
	}
	return total
}

// Forced builds a plan that assigns every layer the same (method,
// precision) at width k — the A/B baseline constructor for benchmarks and
// parity tests. No budget is enforced.
func Forced(geoms []conv.LayerGeom, m conv.Method, prec conv.Precision, k int) *Plan {
	if k <= 0 {
		k = 1
	}
	if m != conv.FFT {
		prec = conv.PrecF64
	}
	p := &Plan{K: k}
	for i, g := range geoms {
		a := Assignment{
			Layer: i, Geom: g, Method: m, Precision: prec,
			Cost:  layerCost(g, m, prec, k, false),
			Bytes: LayerBytes(g, m, prec, k, 1),
		}
		p.Cost += a.Cost
		p.PeakBytes += a.Bytes
		p.Layers = append(p.Layers, a)
	}
	p.index()
	return p
}

// index builds the Lookup map.
func (p *Plan) index() {
	p.byGeom = make(map[geomKey]Assignment, len(p.Layers))
	for _, a := range p.Layers {
		p.byGeom[keyOf(a.Geom)] = a
	}
}

// Lookup resolves a layer geometry to its planned assignment. Density is
// ignored in the match (see geomKey).
func (p *Plan) Lookup(g conv.LayerGeom) (Assignment, bool) {
	a, ok := p.byGeom[keyOf(g)]
	return a, ok
}

// Methods returns the distinct methods the plan uses, in layer order.
func (p *Plan) Methods() []conv.Method {
	seen := map[conv.Method]bool{}
	var out []conv.Method
	for _, a := range p.Layers {
		if !seen[a.Method] {
			seen[a.Method] = true
			out = append(out, a.Method)
		}
	}
	return out
}

// Table renders the plan as an aligned text table for CLI inspection.
func (p *Plan) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: K=%d  est cost=%.4g  est peak bytes=%d", p.K, p.Cost, p.PeakBytes)
	if p.Budget > 0 {
		fmt.Fprintf(&b, "  budget=%d", p.Budget)
	}
	b.WriteString("\n")
	if p.BlockOut.Valid() {
		fmt.Fprintf(&b, "block: out=%s in=%s halo waste=%.3f  est cost/voxel=%.4g\n",
			shapeStr(p.BlockOut), shapeStr(p.BlockIn), p.HaloWaste, p.CostPerVoxel)
	}
	fmt.Fprintf(&b, "%-5s %-14s %-8s %-4s %-4s %-7s %-13s %-4s %12s %12s\n",
		"layer", "in", "kernel", "f", "f'", "density", "method", "prec", "est cost", "est bytes")
	for _, a := range p.Layers {
		d := a.Geom.Density
		if d <= 0 {
			d = 1
		}
		fmt.Fprintf(&b, "%-5d %-14s %-8s %-4d %-4d %-7.3f %-13s %-4s %12.4g %12d\n",
			a.Layer, shapeStr(a.Geom.In), shapeStr(a.Geom.Kernel),
			a.Geom.F, a.Geom.FPrime, d,
			a.Method, a.Precision, a.Cost, a.Bytes)
	}
	return b.String()
}

func shapeStr(s tensor.Shape) string {
	return fmt.Sprintf("%dx%dx%d", s.X, s.Y, s.Z)
}

// Stats returns the plan in a JSON-friendly form for /stats and friends.
func (p *Plan) Stats() map[string]any {
	layers := make([]map[string]any, 0, len(p.Layers))
	for _, a := range p.Layers {
		layers = append(layers, map[string]any{
			"layer":     a.Layer,
			"in":        shapeStr(a.Geom.In),
			"kernel":    shapeStr(a.Geom.Kernel),
			"f":         a.Geom.F,
			"f_prime":   a.Geom.FPrime,
			"density":   a.Geom.Density,
			"method":    a.Method.String(),
			"precision": a.Precision.String(),
			"est_cost":  a.Cost,
			"est_bytes": a.Bytes,
		})
	}
	methods := p.Methods()
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.String()
	}
	sort.Strings(names)
	out := map[string]any{
		"k":              p.K,
		"est_cost":       p.Cost,
		"est_peak_bytes": p.PeakBytes,
		"budget":         p.Budget,
		"methods":        names,
		"layers":         layers,
	}
	if p.BlockOut.Valid() {
		out["block_out"] = shapeStr(p.BlockOut)
		out["block_in"] = shapeStr(p.BlockIn)
		out["halo_waste"] = p.HaloWaste
		out["est_cost_per_voxel"] = p.CostPerVoxel
	}
	return out
}
