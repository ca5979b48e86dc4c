package tile

import (
	"fmt"
	"time"

	"znn/internal/tensor"
	"znn/internal/train"
)

// Config parameterizes one streaming run: a compiled block network (whose
// input shape must equal the grid's BlockIn and output shapes the grid's
// BlockOut), the volume reader, and one writer per network output.
type Config struct {
	Prog *train.Program
	Grid *Grid
	In   Reader
	Out  []Writer

	// K is the fused batch width: blocks per inference round. Rounds
	// share one kernel-spectrum fetch per edge sweep across their K
	// blocks. Default 1; the planner's K is the right value for planned
	// networks.
	K int
	// Window is the number of fused rounds in flight; bounded so the stream
	// holds at most (Window+1)·K block inputs and Window rounds' pooled
	// spectra at once. With Window ≥ 2 the three stages overlap: while up
	// to Window rounds compute, the next round's blocks are read and
	// completed rounds are stitched. Window 1 is the naive sequential
	// baseline — read → compute → stitch, one round at a time — which the
	// tile/* benchmarks A/B against. Default 2.
	Window int
	// OnProgress, when non-nil, is called after each stitched round from
	// the executor's goroutine.
	OnProgress func(Progress)
}

// Progress is a snapshot of a running stream.
type Progress struct {
	BlocksDone    int
	BlocksTotal   int
	BytesStitched int64
}

// Stats summarizes a completed stream. The nanosecond attributions are
// per-stage sums measured on the executor's goroutine: under pipelining,
// ComputeNs counts only the time the executor blocked waiting on a round
// (compute hidden behind reads and stitches shows up as its shrinkage
// against the sequential baseline).
type Stats struct {
	Blocks        int
	Rounds        int
	BytesRead     int64
	BytesStitched int64
	ReadNs        int64
	ComputeNs     int64
	StitchNs      int64
}

// inflight is one started fused round and the blocks riding in it.
type inflight struct {
	rs     *train.RoundState
	blocks []Block
	inputs []*tensor.Tensor
}

// Run streams every block of cfg.Grid through fused inference rounds and
// stitches the outputs. It holds one inference admission for the whole
// stream (training waits; concurrent Infer calls coexist), reuses a fixed
// ring of block input tensors, and relies on the rounds' pooled spectrum
// caches — warm blocks allocate no fresh spectra. On error the in-flight
// rounds are drained before returning, so the reader/writers are quiescent.
func Run(cfg Config) (Stats, error) {
	var st Stats
	g := cfg.Grid
	if cfg.Prog == nil || g == nil || cfg.In == nil {
		return st, fmt.Errorf("tile: Config needs Prog, Grid and In")
	}
	ins := cfg.Prog.InputShapes()
	if len(ins) != 1 {
		return st, fmt.Errorf("tile: network has %d input nodes; tiling supports single-input networks", len(ins))
	}
	if ins[0] != g.BlockIn {
		return st, fmt.Errorf("tile: network input shape %v ≠ grid block input %v (build the block network with WithInputShape)", ins[0], g.BlockIn)
	}
	outs := cfg.Prog.OutputShapes()
	if len(cfg.Out) != len(outs) {
		return st, fmt.Errorf("tile: %d writers for %d network outputs", len(cfg.Out), len(outs))
	}
	for i, os := range outs {
		if os != g.BlockOut {
			return st, fmt.Errorf("tile: network output %d shape %v ≠ grid block output %v", i, os, g.BlockOut)
		}
		if cfg.Out[i].Shape() != g.Out {
			return st, fmt.Errorf("tile: writer %d shape %v ≠ output volume %v", i, cfg.Out[i].Shape(), g.Out)
		}
	}
	if cfg.In.Shape() != g.Vol {
		return st, fmt.Errorf("tile: reader shape %v ≠ volume %v", cfg.In.Shape(), g.Vol)
	}
	k := cfg.K
	if k < 1 {
		k = 1
	}
	window := cfg.Window
	if window < 1 {
		window = 2
	}

	release := cfg.Prog.AcquireInfer()
	defer release()

	// The input ring: enough tensors for Window rounds in flight plus the
	// round being read. Tensors cycle through the free list, so a warm
	// stream allocates no images either.
	free := make(chan *tensor.Tensor, (window+1)*k)
	for i := 0; i < (window+1)*k; i++ {
		free <- tensor.New(g.BlockIn)
	}

	total := g.NumBlocks()
	drain := func(f inflight) error {
		t0 := time.Now()
		err := f.rs.Wait()
		st.ComputeNs += time.Since(t0).Nanoseconds()
		if err == nil {
			err = cfg.Prog.Err()
		}
		for _, in := range f.inputs {
			free <- in
		}
		if err != nil {
			return err
		}
		t0 = time.Now()
		for v, b := range f.blocks {
			outsV := f.rs.OutputsAt(v)
			for oi, w := range cfg.Out {
				n, werr := w.WriteBlock(outsV[oi], b)
				st.BytesStitched += n
				if werr != nil {
					return werr
				}
			}
		}
		st.StitchNs += time.Since(t0).Nanoseconds()
		st.Blocks += len(f.blocks)
		st.Rounds++
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{BlocksDone: st.Blocks, BlocksTotal: total, BytesStitched: st.BytesStitched})
		}
		return nil
	}
	// drainAll waits every started round even after an error: the rounds
	// reference ring tensors and the scheduler, so returning early would
	// leave them racing the caller.
	var q []inflight
	drainAll := func(first error) error {
		for _, f := range q {
			if err := drain(f); err != nil && first == nil {
				first = err
			}
		}
		q = nil
		return first
	}

	for start := 0; start < total; start += k {
		if len(q) == window {
			if err := drain(q[0]); err != nil {
				q = q[1:]
				return st, drainAll(err)
			}
			q = q[1:]
		}
		end := start + k
		if end > total {
			end = total
		}
		blocks := make([]Block, 0, end-start)
		inputs := make([]*tensor.Tensor, 0, end-start)
		batch := make([][]*tensor.Tensor, 0, end-start)
		t0 := time.Now()
		for i := start; i < end; i++ {
			b := g.Block(i)
			in := <-free
			n, err := cfg.In.ReadBlock(in, b.In)
			st.BytesRead += n
			if err != nil {
				free <- in
				for _, t := range inputs {
					free <- t
				}
				return st, drainAll(err)
			}
			blocks = append(blocks, b)
			inputs = append(inputs, in)
			batch = append(batch, []*tensor.Tensor{in})
		}
		st.ReadNs += time.Since(t0).Nanoseconds()
		rs, err := cfg.Prog.NewRound(train.ModeInfer, batch, nil)
		if err != nil {
			for _, t := range inputs {
				free <- t
			}
			return st, drainAll(err)
		}
		rs.Start()
		q = append(q, inflight{rs: rs, blocks: blocks, inputs: inputs})
	}
	return st, drainAll(nil)
}
