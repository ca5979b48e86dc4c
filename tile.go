package znn

import (
	"fmt"

	"znn/internal/conv"
	"znn/internal/net"
	"znn/internal/plan"
	"znn/internal/tensor"
	"znn/internal/tile"
)

// TileStats summarizes a completed streaming (tiled) inference run.
type TileStats = tile.Stats

// TileProgress is a snapshot of a running tiled inference stream.
type TileProgress = tile.Progress

// DefaultBlockOut is the isotropic block output extent tiled inference
// uses when the network has no execution planner to choose one.
const DefaultBlockOut = 32

// TileOptions parameterizes whole-volume streaming inference.
type TileOptions struct {
	// BlockOut is the isotropic per-block output extent; blocks are
	// clamped per axis to the volume. 0 lets the execution planner score
	// candidates (planned networks) or falls back to DefaultBlockOut.
	BlockOut int
	// Candidates restricts the planner's candidate block extents when
	// BlockOut is 0; nil uses plan.DefaultBlockCandidates.
	Candidates []int
	// MemBudget overrides Config.MemBudget for block planning; 0 keeps
	// the network's configured budget.
	MemBudget int64
	// K is the fused batch width (blocks per inference round); 0 uses the
	// plan's K, or 1 for unplanned networks.
	K int
	// Window is the number of fused rounds in flight; 0 means 2. Window 1
	// disables the overlap: read → compute → stitch one round at a time, the
	// naive baseline the tile benchmarks A/B against.
	Window int
	// OnProgress, when non-nil, receives a snapshot after every stitched
	// round.
	OnProgress func(TileProgress)
}

// WithInputShape returns a new independent Network with the same spec,
// configuration and current parameters, rebuilt to take inputs of the
// given — possibly anisotropic — shape. Pending weight updates are applied
// first, so the clone computes with the weights training has reached. The
// caller owns the clone and must Close it.
func (n *Network) WithInputShape(in Shape) (*Network, error) {
	return n.rebuildAt(in, 0)
}

// rebuildAt rebuilds the network at an input shape, charging the byte
// model for `rounds` in-flight fused rounds when the network plans.
func (n *Network) rebuildAt(in Shape, rounds int) (*Network, error) {
	if err := n.en.Drain(); err != nil {
		return nil, err
	}
	return compile(n.spec, n.cfg, net.BuildOptions{InputShape: in}, n.nw.Params(), rounds)
}

// Tileable reports whether the network can run tiled whole-volume
// inference: pooled specs (not per-voxel translation invariant) and
// multi-input networks cannot tile, and the error says how to fix the
// former. Serving front ends use this to reject cube jobs at submission
// instead of after the upload.
func (n *Network) Tileable() error { return n.tileable() }

func (n *Network) tileable() error {
	if n.spec.HasPooling() {
		return fmt.Errorf("znn: spec %q has max-pooling layers, which are not translation invariant per voxel and cannot be tiled; build with Config.SlidingWindow to convert pooling to max filtering", n.spec)
	}
	if n.cfg.InWidth > 1 {
		return fmt.Errorf("znn: tiled inference supports single-input networks, InWidth is %d", n.cfg.InWidth)
	}
	return nil
}

// PlanBlocks runs the execution planner's block-shape scorer for tiling a
// volume of the given shape: candidate block extents are costed per fresh
// output voxel — halo recomputation priced against per-layer method
// choices — under the memory budget, with the byte model charged for the
// streaming window's in-flight rounds. The returned plan carries the
// chosen block in BlockOut/BlockIn and in its Table.
func (n *Network) PlanBlocks(vol Shape, opt TileOptions) (*plan.Plan, error) {
	if err := n.tileable(); err != nil {
		return nil, err
	}
	live := n.nw.LayerGeoms()
	bo := net.BuildOptions{Width: n.cfg.Width, InWidth: n.cfg.InWidth, OutWidth: n.cfg.OutWidth, Dims: n.cfg.Dims}
	spec := n.spec
	geoms := func(bi tensor.Shape) ([]conv.LayerGeom, error) {
		gs, err := net.LayerGeomsFor(spec, bo, bi)
		if err != nil {
			return nil, err
		}
		if len(gs) == len(live) { // graft live kernel densities
			for i := range gs {
				gs[i].Density = live[i].Density
			}
		}
		return gs, nil
	}
	budget := opt.MemBudget
	if budget == 0 {
		budget = n.cfg.MemBudget
	}
	return plan.BuildBlocked(plan.BlockConfig{
		Config:     n.cfg.planConfig(budget, tileWindow(opt)),
		FOV:        n.spec.FieldOfView(),
		Vol:        vol,
		Candidates: opt.Candidates,
		Geoms:      geoms,
	})
}

func tileWindow(opt TileOptions) int {
	if opt.Window > 0 {
		return opt.Window
	}
	return 2
}

// InferVolumeIO runs whole-volume streaming inference through an
// arbitrary tile.Reader and tile.Writers — the raw-file path znn-infer
// uses for volumes that don't fit in memory. The volume is split into
// overlapping blocks (halo = FieldOfView−1), streamed through fused
// inference rounds on a block-shaped clone of this network with a bounded
// in-flight window, and stitched into the writers, one per network
// output, each of shape vol − (FOV−1) per axis. The receiving network is
// untouched (and stays usable concurrently); the block clone is closed
// before returning.
func (n *Network) InferVolumeIO(in tile.Reader, out []tile.Writer, opt TileOptions) (TileStats, error) {
	var st TileStats
	if err := n.tileable(); err != nil {
		return st, err
	}
	vol := in.Shape()
	blockOut, k := opt.BlockOut, opt.K
	if blockOut == 0 {
		if n.cfg.Planned || n.cfg.MemBudget > 0 || opt.MemBudget > 0 {
			bp, err := n.PlanBlocks(vol, opt)
			if err != nil {
				return st, err
			}
			blockOut = maxAxis(bp.BlockOut)
			if k == 0 {
				k = bp.K
			}
		} else {
			blockOut = DefaultBlockOut
		}
	}
	g, err := tile.NewGrid(vol, n.spec.FieldOfView(), blockOut)
	if err != nil {
		return st, err
	}
	window := tileWindow(opt)
	bn, err := n.rebuildAt(g.BlockIn, window)
	if err != nil {
		return st, err
	}
	defer bn.Close()
	if k == 0 {
		k = 1
		if bn.pl != nil {
			k = bn.pl.K
		}
	}
	return tile.Run(tile.Config{
		Prog: bn.en.Program(), Grid: g,
		In: in, Out: out,
		K: k, Window: window,
		OnProgress: opt.OnProgress,
	})
}

// InferVolume is InferVolumeIO over in-memory tensors: it streams vol
// through overlapping blocks and returns one stitched output volume per
// network output. With spatial (direct) convolution the result is
// bit-identical to single-shot inference at any block size; FFT layers
// match to the precision's tolerance.
func (n *Network) InferVolume(vol *Tensor, opt TileOptions) ([]*Tensor, TileStats, error) {
	var st TileStats
	if err := n.tileable(); err != nil {
		return nil, st, err
	}
	// Validate the decomposition up front to size the output volumes (the
	// block extent is resolved again, identically, inside InferVolumeIO).
	g, err := tile.NewGrid(vol.S, n.spec.FieldOfView(), 1)
	if err != nil {
		return nil, st, err
	}
	outs := make([]*Tensor, len(n.nw.Outputs))
	writers := make([]tile.Writer, len(outs))
	for i := range outs {
		outs[i] = tensor.New(g.Out)
		writers[i] = tile.MemWriter{T: outs[i]}
	}
	st, err = n.InferVolumeIO(tile.MemReader{T: vol}, writers, opt)
	if err != nil {
		return nil, st, err
	}
	return outs, st, nil
}

func maxAxis(s Shape) int {
	m := s.X
	if s.Y > m {
		m = s.Y
	}
	if s.Z > m {
		m = s.Z
	}
	return m
}
