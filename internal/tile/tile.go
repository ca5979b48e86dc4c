// Package tile splits arbitrarily large volumes into overlapping blocks
// sized by the network's output geometry, streams the blocks through fused
// inference rounds, and stitches the block outputs into the whole-volume
// result — the ZNNi/znn3 "process whole cube" workload, where the volume
// (an EM stack, say) is far larger than the spectra pools or even RAM.
//
// # Halo / valid-region geometry
//
// A translation-invariant network with field of view FOV maps an input
// region of extent n to an output region of extent n − (FOV−1): every
// output voxel sees a FOV-wide input window centred on it. Tiling
// therefore overlaps adjacent input blocks by the halo FOV−1 so that
// every output voxel's full window is present in some block:
//
//	input axis (extent V):
//	|<------------- block 0 input ------------->|
//	                                 |<------------- block 1 input ---- …
//	|<-- halo -->|<---- b out ---->|             (overlap = FOV−1)
//
//	output axis (extent V − FOV + 1):
//	|<---- block 0 output ---->|<---- block 1 output ---->| …
//	      (disjoint, abutting — the "valid regions")
//
// Each block's input extent is b + FOV − 1 for an output extent of b, so
// the fraction of convolution work recomputed in halos is
// 1 − (b/(b+FOV−1))³ for isotropic blocks: bigger blocks amortize the
// halo but need bigger spectra; the execution planner scores that
// trade-off (plan.BuildBlocked) under the memory budget.
//
// Ragged edges — output extents not divisible by b — keep one block shape
// for the whole grid by shifting the final block of an axis inward so it
// ends exactly at the volume boundary. The shifted block recomputes
// voxels an earlier block already produced; its stitch region starts at
// an interior offset (Block.Src) so every output voxel is written exactly
// once, by a statically determined block. With spatial-domain arithmetic
// (direct convolution at any kernel density, transfers, max filters) the
// recomputed values are bitwise equal to the originals — convolution at
// an offset reads the same inputs in the same order — so the stitched
// volume is bit-identical to single-shot inference regardless of block
// size. FFT convolution is translation-invariant only to rounding: its
// summation order depends on the transform extent, so tiled-vs-single-shot
// parity holds at the precision's tolerance (and two tiled runs at one
// block size remain bit-identical to each other).
package tile

import (
	"fmt"

	"znn/internal/tensor"
)

// Grid is an overlapping block decomposition of one volume: every block
// has input shape BlockIn = BlockOut + (FOV−1) and the blocks' stitch
// regions partition the output volume exactly.
type Grid struct {
	Vol      tensor.Shape // input volume shape
	Out      tensor.Shape // output volume shape: Vol − (FOV−1) per axis
	FOV      int          // network field of view
	BlockOut tensor.Shape // per-block output shape (requested extent, clamped to Out)
	BlockIn  tensor.Shape // per-block input shape: BlockOut + FOV − 1

	nx, ny, nz int // block counts per axis
}

// NewGrid decomposes a volume for a network with the given field of view
// into blocks of (at most) the requested isotropic output extent. The
// block shape is clamped per axis to the output volume, so thin volumes
// get thin blocks instead of failing. Errors are diagnosable: a block
// whose input would be smaller than the field of view (blockOut < 1), or
// a volume axis smaller than the field of view, cannot be tiled.
func NewGrid(vol tensor.Shape, fov, blockOut int) (*Grid, error) {
	if fov < 1 {
		return nil, fmt.Errorf("tile: field of view %d must be ≥ 1", fov)
	}
	if !vol.Valid() {
		return nil, fmt.Errorf("tile: invalid volume shape %v", vol)
	}
	if vol.X < fov || vol.Y < fov || vol.Z < fov {
		return nil, fmt.Errorf("tile: volume %v smaller than the field of view %d (no output voxel has a full input window)", vol, fov)
	}
	if blockOut < 1 {
		return nil, fmt.Errorf("tile: block output extent %d must be ≥ 1 — a block input of %d voxels is smaller than the field of view %d",
			blockOut, blockOut+fov-1, fov)
	}
	halo := fov - 1
	out := vol.Sub(tensor.S3(halo, halo, halo))
	bo := tensor.S3(blockOut, blockOut, blockOut).Min(out)
	g := &Grid{
		Vol:      vol,
		Out:      out,
		FOV:      fov,
		BlockOut: bo,
		BlockIn:  bo.Add(tensor.S3(halo, halo, halo)),
		nx:       ceilDiv(out.X, bo.X),
		ny:       ceilDiv(out.Y, bo.Y),
		nz:       ceilDiv(out.Z, bo.Z),
	}
	return g, nil
}

// BlockOutFromIn converts a block input extent to the output extent NewGrid
// takes, erroring clearly when the block is smaller than the field of view
// — the conversion CLI flags expressed in input (memory) terms go through.
func BlockOutFromIn(fov, blockIn int) (int, error) {
	if blockIn < fov {
		return 0, fmt.Errorf("tile: block input extent %d is smaller than the field of view %d — no output voxel fits in such a block", blockIn, fov)
	}
	return blockIn - fov + 1, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// NumBlocks returns the total block count.
func (g *Grid) NumBlocks() int { return g.nx * g.ny * g.nz }

// Counts returns the per-axis block counts.
func (g *Grid) Counts() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// HaloWaste is the fraction of per-block input voxels that are halo — the
// convolution work recomputed because of tiling; 1 − (b/(b+FOV−1))³ for
// isotropic full-size blocks.
func (g *Grid) HaloWaste() float64 {
	return 1 - float64(g.BlockOut.Volume())/float64(g.BlockIn.Volume())
}

// Block is one tile of the decomposition. Offsets are voxel coordinate
// triples carried as tensor.Shape values. The stitch region is the subset
// of the block's output this block contributes: Region voxels read from
// the block output at offset Src, written to the output volume at offset
// Dst. Regions of distinct blocks are disjoint and cover the output
// volume exactly; Src is nonzero only on inward-shifted ragged-edge
// blocks.
type Block struct {
	Index  int
	In     tensor.Shape // input region offset in the input volume (shape: grid.BlockIn)
	Src    tensor.Shape // stitch-region offset within the block output
	Dst    tensor.Shape // stitch-region offset in the output volume
	Region tensor.Shape // stitch-region shape
}

// Block returns the i-th block, x-fastest over the (nx, ny, nz) grid.
func (g *Grid) Block(i int) Block {
	ix := i % g.nx
	iy := (i / g.nx) % g.ny
	iz := i / (g.nx * g.ny)
	sx, ox, rx := axisBlock(ix, g.BlockOut.X, g.Out.X)
	sy, oy, ry := axisBlock(iy, g.BlockOut.Y, g.Out.Y)
	sz, oz, rz := axisBlock(iz, g.BlockOut.Z, g.Out.Z)
	return Block{
		Index:  i,
		In:     tensor.S3(ox, oy, oz),
		Src:    tensor.S3(sx, sy, sz),
		Dst:    tensor.S3(ix*g.BlockOut.X, iy*g.BlockOut.Y, iz*g.BlockOut.Z),
		Region: tensor.S3(rx, ry, rz),
	}
}

// axisBlock places block i of extent b on an output axis of extent n: the
// block's output starts at o = min(i·b, n−b) (the final block shifts
// inward so it ends at the boundary), its stitch region is the unclaimed
// tail [i·b, min((i+1)·b, n)), and src = i·b − o is where that region sits
// inside the block's own output.
func axisBlock(i, b, n int) (src, start, region int) {
	u := i * b
	start = u
	if start > n-b {
		start = n - b
	}
	region = b
	if u+region > n {
		region = n - u
	}
	return u - start, start, region
}
