package znn

import (
	"math/rand"
	"strings"
	"testing"

	"znn/internal/mempool"
	"znn/internal/tensor"
)

// TestInferVolumeMatchesSingleShot: tiled whole-volume inference with
// direct convolution is bitwise identical to a single whole-volume round,
// at dividing and ragged block sizes, pipelined and sequential.
func TestInferVolumeMatchesSingleShot(t *testing.T) {
	n, err := NewNetwork("C3-Trelu-C3-Ttanh", Config{
		Width: 2, OutputPatch: 4, Workers: 2, Conv: ForceDirect, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	vol := tensor.RandomUniform(rand.New(rand.NewSource(6)), Cube(12), -1, 1)
	single, err := n.WithInputShape(vol.S)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Infer(vol.Clone())
	single.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, blockOut := range []int{3, 4, 8} { // out volume is 8³: ragged, divides, single block
		for _, window := range []int{0, 1} { // default overlap, sequential baseline
			outs, st, err := n.InferVolume(vol, TileOptions{BlockOut: blockOut, K: 2, Window: window})
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 1 || outs[0].S != Cube(8) {
				t.Fatalf("block %d: got %d outputs, first shape %v", blockOut, len(outs), outs[0].S)
			}
			if !outs[0].Equal(ref[0]) {
				t.Errorf("block %d window=%d: tiled differs from single-shot (max |Δ| = %g)",
					blockOut, window, outs[0].MaxAbsDiff(ref[0]))
			}
			if st.Blocks < 1 {
				t.Errorf("block %d: stats report %d blocks", blockOut, st.Blocks)
			}
		}
	}
}

// TestInferVolumePoolingRejected: pooled specs cannot tile and the error
// says how to fix it; the SlidingWindow conversion of the same spec tiles
// fine.
func TestInferVolumePoolingRejected(t *testing.T) {
	pooled, err := NewNetwork("C2-Trelu-P2-C2", Config{Width: 2, OutputPatch: 2, Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	vol := tensor.RandomUniform(rand.New(rand.NewSource(8)), Cube(10), -1, 1)
	if _, _, err := pooled.InferVolume(vol, TileOptions{BlockOut: 2}); err == nil ||
		!strings.Contains(err.Error(), "SlidingWindow") {
		t.Fatalf("pooled spec: want SlidingWindow hint, got %v", err)
	}
	if _, err := pooled.PlanBlocks(vol.S, TileOptions{}); err == nil {
		t.Fatal("pooled spec PlanBlocks: want error")
	}

	sw, err := NewNetwork("C2-Trelu-P2-C2", Config{
		Width: 2, OutputPatch: 2, Workers: 2, Conv: ForceDirect, Seed: 7, SlidingWindow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	fov := sw.FieldOfView()
	vol = tensor.RandomUniform(rand.New(rand.NewSource(8)), Cube(fov+4), -1, 1)
	single, err := sw.WithInputShape(vol.S)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Infer(vol.Clone())
	single.Close()
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := sw.InferVolume(vol, TileOptions{BlockOut: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Equal(ref[0]) {
		t.Errorf("sliding-window tiled differs from single-shot (max |Δ| = %g)", outs[0].MaxAbsDiff(ref[0]))
	}
}

// TestInferVolumePlannedBudget: a planned network with a memory budget
// picks its own block, the plan table names it, and the measured pooled
// spectrum peak stays within the budget (the byte model is an upper
// bound).
func TestInferVolumePlannedBudget(t *testing.T) {
	const budget = 8 << 20
	n, err := NewNetwork("C3-Trelu-C3-Ttanh", Config{
		Width: 2, OutputPatch: 4, Workers: 2, MemBudget: budget, PlanMaxK: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	vol := tensor.RandomUniform(rand.New(rand.NewSource(10)), Cube(16), -1, 1)

	bp, err := n.PlanBlocks(vol.S, TileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bp.BlockOut.Valid() || bp.PeakBytes > budget {
		t.Fatalf("block plan: BlockOut=%v PeakBytes=%d budget=%d", bp.BlockOut, bp.PeakBytes, budget)
	}
	if !strings.Contains(bp.Table(), "block: out=") {
		t.Errorf("plan table does not emit the block:\n%s", bp.Table())
	}

	mempool.Spectra.ResetPeak()
	mempool.Spectra32.ResetPeak()
	outs, st, err := n.InferVolume(vol, TileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].S != Cube(12) {
		t.Fatalf("output shape %v, want 12³", outs[0].S)
	}
	if st.Blocks < 1 {
		t.Fatalf("stats: %+v", st)
	}
	peak := mempool.Spectra.Stats().PeakLiveBytes + mempool.Spectra32.Stats().PeakLiveBytes
	if peak > budget {
		t.Errorf("measured pooled spectrum peak %d exceeds budget %d", peak, budget)
	}

	// Reference parity at the planner's tolerance (FFT layers may be
	// chosen, so compare at f64 tolerance, not bitwise).
	single, err := n.WithInputShape(vol.S)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ref, err := single.Infer(vol.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].ApproxEqual(ref[0], 1e-9) {
		t.Errorf("planned tiled vs single-shot: max |Δ| = %g", outs[0].MaxAbsDiff(ref[0]))
	}
}

// TestWithInputShapeSharesParams: the clone computes with the parent's
// trained weights and an anisotropic shape.
func TestWithInputShapeSharesParams(t *testing.T) {
	n, err := NewNetwork("C3-Trelu-C2", Config{Width: 2, OutputPatch: 2, Workers: 1, Conv: ForceDirect, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(12))
	// Nudge the weights so the clone can't match by construction alone.
	in := tensor.RandomUniform(rng, n.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, n.OutputShape(), -1, 1)
	if _, err := n.Train(in, des); err != nil {
		t.Fatal(err)
	}
	clone, err := n.WithInputShape(S3(5, 9, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if clone.InputShape() != S3(5, 9, 7) {
		t.Fatalf("clone input shape %v", clone.InputShape())
	}
	pp, cp := n.Params(), clone.Params()
	if len(pp) != len(cp) {
		t.Fatalf("param count %d vs %d", len(pp), len(cp))
	}
	for i := range pp {
		if pp[i] != cp[i] {
			t.Fatalf("param %d differs after WithInputShape", i)
		}
	}
	if _, err := clone.Infer(tensor.RandomUniform(rng, S3(5, 9, 7), -1, 1)); err != nil {
		t.Fatal(err)
	}
}
