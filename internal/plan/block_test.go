package plan

import (
	"strings"
	"testing"

	"znn/internal/conv"
	"znn/internal/net"
	"znn/internal/tensor"
)

// blockGeoms curries net.LayerGeomsFor over a spec — the callback shape
// BuildBlocked consumes.
func blockGeoms(t *testing.T, spec string, width int) func(tensor.Shape) ([]conv.LayerGeom, error) {
	t.Helper()
	s := net.MustParse(spec)
	return func(in tensor.Shape) ([]conv.LayerGeom, error) {
		return net.LayerGeomsFor(s, net.BuildOptions{Width: width}, in)
	}
}

// TestBuildBlockedPrefersBigBlocks: unconstrained, cost per fresh output
// voxel falls as the halo amortizes, so the largest candidate wins — and
// the choice is emitted in the table and stats.
func TestBuildBlockedPrefersBigBlocks(t *testing.T) {
	p, err := BuildBlocked(BlockConfig{
		FOV: 5, Vol: tensor.Cube(200),
		Candidates: []int{4, 16, 32},
		Geoms:      blockGeoms(t, "C3-Trelu-C3", 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOut != tensor.Cube(32) {
		t.Errorf("BlockOut = %v, want 32³", p.BlockOut)
	}
	if p.BlockIn != tensor.Cube(36) {
		t.Errorf("BlockIn = %v, want 36³", p.BlockIn)
	}
	boVox, biVox := float64(32*32*32), float64(36*36*36)
	wantWaste := 1 - boVox/biVox
	if p.HaloWaste != wantWaste {
		t.Errorf("HaloWaste = %v, want %v", p.HaloWaste, wantWaste)
	}
	if p.CostPerVoxel <= 0 || p.CostPerVoxel != p.Cost/float64(32*32*32) {
		t.Errorf("CostPerVoxel = %v inconsistent with Cost %v", p.CostPerVoxel, p.Cost)
	}
	if tab := p.Table(); !strings.Contains(tab, "block: out=32x32x32") {
		t.Errorf("Table() does not emit the chosen block:\n%s", tab)
	}
	st := p.Stats()
	if st["block_out"] != "32x32x32" || st["halo_waste"] != wantWaste {
		t.Errorf("Stats() block fields = %v / %v", st["block_out"], st["halo_waste"])
	}
}

// TestBuildBlockedBudgetShrinksBlock: with methods restricted to FFT (so
// the planner cannot shed spectra by going spatial), a budget between the
// small and large blocks' footprints must force the small block.
func TestBuildBlockedBudgetShrinksBlock(t *testing.T) {
	geoms := blockGeoms(t, "C3-Trelu-C3", 2)
	cfg := Config{Methods: []conv.Method{conv.FFT}, Precisions: []conv.Precision{conv.PrecF64}, MaxK: 1}

	footprint := func(b int) int64 {
		gs, err := geoms(tensor.Cube(b + 4))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Build(gs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.PeakBytes
	}
	small, large := footprint(8), footprint(32)
	if small >= large {
		t.Fatalf("footprints not ordered: block 8 = %d, block 32 = %d", small, large)
	}

	bc := BlockConfig{Config: cfg, FOV: 5, Vol: tensor.Cube(200), Candidates: []int{8, 32}, Geoms: geoms}
	bc.Budget = (small + large) / 2
	p, err := BuildBlocked(bc)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOut != tensor.Cube(8) {
		t.Errorf("budget %d: BlockOut = %v, want 8³", bc.Budget, p.BlockOut)
	}
	if p.PeakBytes > bc.Budget {
		t.Errorf("chosen plan bytes %d exceed budget %d", p.PeakBytes, bc.Budget)
	}

	// Unconstrained the same candidates prefer the big block.
	bc.Budget = 0
	p, err = BuildBlocked(bc)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOut != tensor.Cube(32) {
		t.Errorf("unconstrained: BlockOut = %v, want 32³", p.BlockOut)
	}
}

// TestBuildBlockedChargesGridRounds: a candidate is charged at most the
// ⌈blocks/K⌉ rounds its grid runs, however wide the streaming window. A
// 16³ block over a 33³ output is a 3×3×3 grid, its last blocks ragged, so
// at K=1 a window of 64 rounds costs what a window of 27 does.
func TestBuildBlockedChargesGridRounds(t *testing.T) {
	geoms := blockGeoms(t, "C3-Trelu-C3", 2)
	cfg := Config{Methods: []conv.Method{conv.FFT}, Precisions: []conv.Precision{conv.PrecF64}, MaxK: 1}
	gs, err := geoms(tensor.Cube(20))
	if err != nil {
		t.Fatal(err)
	}
	peak := func(rounds int) int64 {
		c := cfg
		c.Rounds = rounds
		p, err := Build(gs, c)
		if err != nil {
			t.Fatal(err)
		}
		return p.PeakBytes
	}
	cfg.Rounds = 64
	p, err := BuildBlocked(BlockConfig{Config: cfg, FOV: 5, Vol: tensor.Cube(37), Candidates: []int{16}, Geoms: geoms})
	if err != nil {
		t.Fatal(err)
	}
	if want := peak(27); p.PeakBytes != want || want >= peak(64) {
		t.Errorf("window 64 over 27 blocks: peak %d B, want %d (27 rounds; 64 rounds cost %d)", p.PeakBytes, want, peak(64))
	}
}

// TestBuildBlockedClampsThinVolume: a 7×96×96 volume clamps the candidate
// to a thin anisotropic block instead of failing.
func TestBuildBlockedClampsThinVolume(t *testing.T) {
	p, err := BuildBlocked(BlockConfig{
		FOV: 3, Vol: tensor.S3(7, 96, 96),
		Candidates: []int{16},
		Geoms:      blockGeoms(t, "C2-Trelu-C2", 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOut != tensor.S3(5, 16, 16) {
		t.Errorf("BlockOut = %v, want (5,16,16)", p.BlockOut)
	}
	if p.BlockIn != tensor.S3(7, 18, 18) {
		t.Errorf("BlockIn = %v, want (7,18,18)", p.BlockIn)
	}
}

// TestBuildBlockedErrors pins the diagnosable failures.
func TestBuildBlockedErrors(t *testing.T) {
	geoms := blockGeoms(t, "C3-Trelu-C3", 2)
	if _, err := BuildBlocked(BlockConfig{FOV: 5, Vol: tensor.Cube(4), Candidates: []int{4}, Geoms: geoms}); err == nil {
		t.Error("volume under the FOV: want error")
	}
	if _, err := BuildBlocked(BlockConfig{FOV: 5, Vol: tensor.Cube(64), Candidates: []int{4}}); err == nil {
		t.Error("nil Geoms: want error")
	}
	bc := BlockConfig{FOV: 5, Vol: tensor.Cube(64), Candidates: []int{4, 8}, Geoms: geoms}
	bc.Budget = 1
	bc.Methods = []conv.Method{conv.FFT}
	if _, err := BuildBlocked(bc); err == nil {
		t.Error("1-byte budget with FFT-only methods: want error naming the infeasibility")
	}
}

// TestLayerBytesRounds pins the in-flight-rounds byte model: equal
// increments per extra round (round-scoped terms are linear) with a shared
// kernel-spectrum constant (so 2 rounds cost less than 2× one round), and
// rounds=1 degenerate to LayerBytes.
func TestLayerBytesRounds(t *testing.T) {
	g := conv.LayerGeom{In: tensor.Cube(24), Kernel: tensor.Cube(3), Sp: tensor.Dense(), F: 2, FPrime: 2, Density: 1}
	r1 := LayerBytesRounds(g, conv.FFT, conv.PrecF64, 2, 4, 1)
	r2 := LayerBytesRounds(g, conv.FFT, conv.PrecF64, 2, 4, 2)
	r3 := LayerBytesRounds(g, conv.FFT, conv.PrecF64, 2, 4, 3)
	if r1 != LayerBytes(g, conv.FFT, conv.PrecF64, 2, 4) {
		t.Errorf("rounds=1 (%d) ≠ LayerBytes (%d)", r1, LayerBytes(g, conv.FFT, conv.PrecF64, 2, 4))
	}
	if r2-r1 != r3-r2 {
		t.Errorf("round increments differ: %d vs %d", r2-r1, r3-r2)
	}
	if !(r1 < r2 && r2 < 2*r1) {
		t.Errorf("kernel spectra not shared: r1=%d r2=%d", r1, r2)
	}
	if got := LayerBytesRounds(g, conv.Direct, conv.PrecF64, 2, 4, 3); got != 0 {
		t.Errorf("direct rounds bytes = %d, want 0", got)
	}
	// The Config knob reaches the model.
	gs := []conv.LayerGeom{g}
	p1, err := Build(gs, Config{Methods: []conv.Method{conv.FFT}, Precisions: []conv.Precision{conv.PrecF64}, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(gs, Config{Methods: []conv.Method{conv.FFT}, Precisions: []conv.Precision{conv.PrecF64}, MaxK: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p2.PeakBytes <= p1.PeakBytes {
		t.Errorf("Rounds=2 peak %d not above Rounds=1 peak %d", p2.PeakBytes, p1.PeakBytes)
	}
}
