package plan

import (
	"fmt"

	"znn/internal/conv"
	"znn/internal/tensor"
)

// BlockConfig parameterizes block-shape planning for streaming (tiled)
// inference: on top of the per-layer (method, precision, K) assignment,
// the planner scores candidate block output extents. Small blocks waste
// convolution work in halos — a fraction 1 − (b/(b+FOV−1))³ of every
// block input is recomputed overlap — while big blocks need big spectra
// that may not fit the budget. The score is the modeled cost per fresh
// output voxel, so the halo waste and the per-layer method trade-off are
// priced in one currency.
type BlockConfig struct {
	Config

	// FOV is the network's field of view; the block input extent is the
	// output extent plus FOV−1 per axis.
	FOV int
	// Vol is the input volume shape being tiled. Candidate blocks are
	// clamped per axis to the volume's output shape, so thin volumes get
	// thin blocks.
	Vol tensor.Shape
	// Candidates lists the isotropic block output extents to score; nil
	// uses DefaultBlockCandidates.
	Candidates []int
	// Geoms returns the network's per-conv-layer geometries at a given
	// block input shape (net.LayerGeomsFor curried over the spec). The
	// planner stays net-agnostic through this callback.
	Geoms func(blockIn tensor.Shape) ([]conv.LayerGeom, error)
}

// DefaultBlockCandidates are the block output extents BuildBlocked scores
// when BlockConfig.Candidates is nil.
var DefaultBlockCandidates = []int{4, 8, 12, 16, 24, 32, 48, 64, 96, 128}

// BuildBlocked plans streaming inference over a volume: for every
// candidate block output extent it derives the block network's layer
// geometries, runs the whole-network planner under the budget, and scores
// the feasible plans by modeled cost per fresh output voxel (ties: smaller
// peak bytes, then smaller block). The winner is returned with its
// BlockOut/BlockIn/HaloWaste/CostPerVoxel fields set and is emitted in the
// plan table. Each candidate is charged Rounds in-flight rounds, but no
// more than the ⌈blocks/K⌉ rounds its grid runs at width K. Infeasible
// candidates — geometries the spec rejects or plans over budget at every
// (method, precision, K) — are skipped; an error is returned only when
// every candidate is infeasible.
func BuildBlocked(bc BlockConfig) (*Plan, error) {
	if bc.FOV < 1 {
		return nil, fmt.Errorf("plan: field of view %d must be ≥ 1", bc.FOV)
	}
	if !bc.Vol.Valid() {
		return nil, fmt.Errorf("plan: invalid volume shape %v", bc.Vol)
	}
	if bc.Vol.X < bc.FOV || bc.Vol.Y < bc.FOV || bc.Vol.Z < bc.FOV {
		return nil, fmt.Errorf("plan: volume %v smaller than the field of view %d", bc.Vol, bc.FOV)
	}
	if bc.Geoms == nil {
		return nil, fmt.Errorf("plan: BlockConfig needs a Geoms callback")
	}
	cands := bc.Candidates
	if cands == nil {
		cands = DefaultBlockCandidates
	}

	halo := bc.FOV - 1
	outVol := bc.Vol.Sub(tensor.S3(halo, halo, halo))

	var best *Plan
	var firstErr error
	seen := map[tensor.Shape]bool{}
	for _, b := range cands {
		if b < 1 {
			continue
		}
		bo := tensor.S3(b, b, b).Min(outVol)
		if seen[bo] { // distinct candidates can clamp to one shape
			continue
		}
		seen[bo] = true
		bi := bo.Add(tensor.S3(halo, halo, halo))
		geoms, err := bc.Geoms(bi)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("block %v: %w", bo, err)
			}
			continue
		}
		p, err := build(geoms, bc.Config, ceilDiv(outVol.X, bo.X)*ceilDiv(outVol.Y, bo.Y)*ceilDiv(outVol.Z, bo.Z))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("block %v: %w", bo, err)
			}
			continue
		}
		p.BlockOut = bo
		p.BlockIn = bi
		p.HaloWaste = 1 - float64(bo.Volume())/float64(bi.Volume())
		p.CostPerVoxel = p.Cost / float64(bo.Volume())
		if best == nil || betterBlocked(p, best) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no candidate block fits budget %d bytes (last failure: %v)", bc.Budget, firstErr)
	}
	return best, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// betterBlocked orders blocked plans: lower cost per output voxel, then
// lower peak bytes, then smaller block — a deterministic total order.
func betterBlocked(a, b *Plan) bool {
	if a.CostPerVoxel != b.CostPerVoxel {
		return a.CostPerVoxel < b.CostPerVoxel
	}
	if a.PeakBytes != b.PeakBytes {
		return a.PeakBytes < b.PeakBytes
	}
	return a.BlockOut.Volume() < b.BlockOut.Volume()
}
