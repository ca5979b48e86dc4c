// znn-infer runs whole-cube streaming inference: it splits an arbitrarily
// large raw volume file into overlapping blocks (halo = FOV−1), streams
// the blocks through fused inference rounds with a bounded in-flight
// window, and stitches the valid regions into the output file — the
// ZNNi-style "process a teravoxel EM cube on one machine" workload. The
// stitched result is bit-identical to single-shot inference for spatial
// (direct) convolution and matches to the precision's tolerance when the
// planner picks FFT layers.
//
// Usage:
//
//	znn-infer -vol 512x512x128 -in cube.raw -out affinity.raw
//	          [-checkpoint model.znn | -spec C3-Trelu-C3 -width 2 -seed 1]
//	          [-dtype f64|f32] [-block N | -block-in N] [-mem-budget bytes]
//	          [-k N] [-window N] [-workers N] [-f32] [-progress]
//	znn-infer -plan-only ...          print the block plan table and exit
//	znn-infer -selfcheck [-vol 96] [-mem-budget 4194304]
//
// Volumes are raw little-endian files in x-fastest order with no header
// (-dtype picks float64 or float32 elements). -out takes one path per
// network output, comma-separated. -block is the per-block OUTPUT extent;
// -block-in expresses the same knob as the block INPUT extent (what the
// block actually costs in memory); with neither, a planned network
// (-mem-budget or a planned checkpoint) scores candidate block shapes by
// modeled cost per fresh output voxel and the table shows the choice.
//
// -selfcheck is the CI gate: it synthesizes a cube, runs the direct leg
// (tiled must be bitwise identical to single-shot) and the planned leg
// (tolerance parity, measured pooled-spectrum peak within -mem-budget),
// and emits one JSON object; exit status 1 if any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"znn"
	"znn/internal/conv"
	"znn/internal/mempool"
	"znn/internal/tensor"
	"znn/internal/tile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("znn-infer: ")

	checkpoint := flag.String("checkpoint", "", "checkpoint file written by znn-train")
	spec := flag.String("spec", "C3-Trelu-C3-Ttanh", "layer spec when no checkpoint is given")
	width := flag.Int("width", 2, "hidden layer width when no checkpoint is given")
	outWidth := flag.Int("out-width", 1, "output image count when no checkpoint is given")
	seed := flag.Int64("seed", 1, "initialization seed when no checkpoint is given")
	f32 := flag.Bool("f32", false, "float32 spectral pipeline when no checkpoint is given")
	slide := flag.Bool("sliding-window", false, "convert pooling layers to max filtering (required to tile pooled specs)")

	volFlag := flag.String("vol", "", "input volume shape: N or XxYxZ")
	inPath := flag.String("in", "", "input raw volume file")
	outPaths := flag.String("out", "", "output raw volume file(s), comma-separated, one per network output")
	dtypeFlag := flag.String("dtype", "f64", "raw element type: f64 or f32")

	block := flag.Int("block", 0, "block output extent per axis (0 = planner choice or default)")
	blockIn := flag.Int("block-in", 0, "block input extent per axis (alternative to -block)")
	memBudget := flag.Int64("mem-budget", 0, "pooled spectrum byte budget for block planning (0 = unconstrained)")
	k := flag.Int("k", 0, "blocks per fused inference round (0 = plan's K or 1)")
	window := flag.Int("window", 0, "fused rounds in flight (0 = 2; 1 = sequential read→compute→stitch baseline)")
	workers := flag.Int("workers", 0, "scheduler workers (0 = all CPUs)")
	progress := flag.Bool("progress", false, "log per-round stitching progress")
	planOnly := flag.Bool("plan-only", false, "print the block plan table and exit")
	selfcheck := flag.Bool("selfcheck", false, "run the synthetic parity/budget self-check and emit JSON")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(*volFlag, *memBudget, *block, *k, *window, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}

	vol, err := parseShape(*volFlag)
	if err != nil {
		log.Fatal(err)
	}
	dtype, err := tile.ParseDType(*dtypeFlag)
	if err != nil {
		log.Fatal(err)
	}

	n, err := loadNetwork(*checkpoint, *spec, *width, *outWidth, *seed, *f32, *slide, *workers, *memBudget)
	if err != nil {
		log.Fatal(znn.CheckpointHint(err))
	}
	defer n.Close()

	blockOut, err := resolveBlock(n, *block, *blockIn)
	if err != nil {
		log.Fatal(err)
	}
	opt := znn.TileOptions{
		BlockOut: blockOut, MemBudget: *memBudget,
		K: *k, Window: *window,
	}

	if *planOnly {
		p, err := n.PlanBlocks(vol, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(p.Table())
		return
	}

	if *inPath == "" || *outPaths == "" {
		log.Fatal("need -in and -out (or -plan-only / -selfcheck)")
	}
	halo := n.FieldOfView() - 1
	outShape := vol.Sub(tensor.S3(halo, halo, halo))
	if !outShape.Valid() {
		log.Fatalf("volume %v smaller than the field of view %d", vol, n.FieldOfView())
	}

	inF, err := os.Open(*inPath)
	if err != nil {
		log.Fatal(err)
	}
	defer inF.Close()
	if err := checkInput(inF, vol, dtype); err != nil {
		log.Fatal(err)
	}
	reader := tile.NewRawReader(inF, vol, dtype)

	var writers []tile.Writer
	var outFiles []*os.File
	for _, p := range strings.Split(*outPaths, ",") {
		f, err := os.Create(strings.TrimSpace(p))
		if err != nil {
			log.Fatal(err)
		}
		outFiles = append(outFiles, f)
		writers = append(writers, tile.NewRawWriter(f, outShape, dtype))
	}

	if *progress {
		opt.OnProgress = func(p znn.TileProgress) {
			log.Printf("blocks %d/%d (%.1f%%), %.1f MiB stitched",
				p.BlocksDone, p.BlocksTotal,
				100*float64(p.BlocksDone)/float64(p.BlocksTotal),
				float64(p.BytesStitched)/(1<<20))
		}
	}

	t0 := time.Now()
	st, err := n.InferVolumeIO(reader, writers, opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range outFiles {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	wall := time.Since(t0)
	vox := float64(outShape.Volume())
	log.Printf("%d blocks in %d rounds, %v wall, %.3g output voxels/s", st.Blocks, st.Rounds, wall.Round(time.Millisecond), vox/wall.Seconds())
	log.Printf("read %.1f MiB (%.2fs), compute-wait %.2fs, stitch %.1f MiB (%.2fs)",
		float64(st.BytesRead)/(1<<20), float64(st.ReadNs)/1e9,
		float64(st.ComputeNs)/1e9,
		float64(st.BytesStitched)/(1<<20), float64(st.StitchNs)/1e9)
}

// loadNetwork builds or loads the model. A budget makes the network
// planned, so block planning has a plan to extend.
func loadNetwork(checkpoint, spec string, width, outWidth int, seed int64, f32, slide bool, workers int, memBudget int64) (*znn.Network, error) {
	if checkpoint != "" {
		if memBudget > 0 {
			return znn.LoadFilePlanned(checkpoint, workers, memBudget, 0)
		}
		return znn.LoadFile(checkpoint, workers)
	}
	return znn.NewNetwork(spec, znn.Config{
		Width: width, OutWidth: outWidth, OutputPatch: 1,
		Workers: workers, Seed: seed, Float32: f32,
		SlidingWindow: slide, MemBudget: memBudget,
	})
}

// resolveBlock turns -block/-block-in into one block output extent.
func resolveBlock(n *znn.Network, block, blockIn int) (int, error) {
	if block != 0 && blockIn != 0 {
		return 0, fmt.Errorf("set at most one of -block and -block-in")
	}
	if blockIn != 0 {
		return tile.BlockOutFromIn(n.FieldOfView(), blockIn)
	}
	return block, nil
}

// checkInput reports whether f is large enough to hold a volume of shape
// vol at dtype d.
func checkInput(f *os.File, vol tensor.Shape, d tile.DType) error {
	need, err := tile.VolumeBytes(vol, d)
	if err != nil {
		return err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() < need {
		return fmt.Errorf("%s holds %d bytes, volume %v at %s needs %d", f.Name(), fi.Size(), vol, d, need)
	}
	return nil
}

// parseShape reads "N" (cube) or "XxYxZ".
func parseShape(s string) (tensor.Shape, error) {
	if s == "" {
		return tensor.Shape{}, fmt.Errorf("need -vol (N or XxYxZ)")
	}
	parts := strings.Split(strings.ToLower(s), "x")
	var d []int
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return tensor.Shape{}, fmt.Errorf("bad volume shape %q", s)
		}
		d = append(d, v)
	}
	switch len(d) {
	case 1:
		return tensor.Cube(d[0]), nil
	case 3:
		return tensor.S3(d[0], d[1], d[2]), nil
	}
	return tensor.Shape{}, fmt.Errorf("bad volume shape %q (want N or XxYxZ)", s)
}

// selfcheckReport is the JSON the CI smoke job asserts on.
type selfcheckReport struct {
	Vol               string  `json:"vol"`
	Spec              string  `json:"spec"`
	BitwiseEqual      bool    `json:"bitwise_equal"`
	TolEqual          bool    `json:"tol_equal"`
	MaxAbsDiff        float64 `json:"max_abs_diff"`
	Tolerance         float64 `json:"tolerance"`
	Budget            int64   `json:"budget"`
	PlanBlockOut      string  `json:"plan_block_out"`
	PlanK             int     `json:"plan_k"`
	PlanHaloWaste     float64 `json:"plan_halo_waste"`
	PlanPeakBytes     int64   `json:"plan_peak_bytes"`
	MeasuredPeakBytes int64   `json:"measured_peak_bytes"`
	WithinBudget      bool    `json:"within_budget"`
	Blocks            int     `json:"blocks"`
	Rounds            int     `json:"rounds"`
	OK                bool    `json:"ok"`
}

// runSelfcheck synthesizes a cube and verifies the tentpole invariants:
// direct-leg bitwise parity with single-shot inference, planned-leg
// tolerance parity, and the measured pooled-spectrum peak staying under
// the budget the plan was built for.
func runSelfcheck(volFlag string, budget int64, block, k, window, workers int) error {
	const spec = "C5-Trelu-C7-Ttanh"
	vol := tensor.Cube(64)
	if volFlag != "" {
		v, err := parseShape(volFlag)
		if err != nil {
			return err
		}
		vol = v
	}
	if budget == 0 {
		budget = 4 << 20
	}
	rep := selfcheckReport{Vol: fmt.Sprintf("%dx%dx%d", vol.X, vol.Y, vol.Z), Spec: spec, Budget: budget}
	input := tensor.RandomUniform(rand.New(rand.NewSource(1)), vol, -1, 1)
	opt := znn.TileOptions{BlockOut: block, K: k, Window: window}

	// Direct leg: bitwise parity at a fixed block size.
	direct, err := znn.NewNetwork(spec, znn.Config{
		Width: 2, OutputPatch: 1, Workers: workers, Conv: znn.ForceDirect, Seed: 3,
	})
	if err != nil {
		return err
	}
	dOpt := opt
	if dOpt.BlockOut == 0 {
		dOpt.BlockOut = 24
	}
	ref, err := singleShot(direct, input)
	if err != nil {
		direct.Close()
		return err
	}
	tiled, _, err := direct.InferVolume(input, dOpt)
	direct.Close()
	if err != nil {
		return err
	}
	rep.BitwiseEqual = tiled[0].Equal(ref)

	// Planned leg: the planner picks the block under the budget; parity at
	// f64 tolerance, measured pool peak within the budget.
	planned, err := znn.NewNetwork(spec, znn.Config{
		Width: 2, OutputPatch: 1, Workers: workers, MemBudget: budget, Seed: 3,
	})
	if err != nil {
		return err
	}
	defer planned.Close()
	bp, err := planned.PlanBlocks(vol, opt)
	if err != nil {
		return err
	}
	rep.PlanBlockOut = fmt.Sprintf("%dx%dx%d", bp.BlockOut.X, bp.BlockOut.Y, bp.BlockOut.Z)
	rep.PlanK = bp.K
	rep.PlanHaloWaste = bp.HaloWaste
	rep.PlanPeakBytes = bp.PeakBytes
	fmt.Fprint(os.Stderr, bp.Table())

	pRef, err := singleShot(planned, input)
	if err != nil {
		return err
	}
	mempool.Spectra.ResetPeak()
	mempool.Spectra32.ResetPeak()
	pTiled, st, err := planned.InferVolume(input, opt)
	if err != nil {
		return err
	}
	rep.MeasuredPeakBytes = mempool.Spectra.Stats().PeakLiveBytes + mempool.Spectra32.Stats().PeakLiveBytes
	rep.WithinBudget = rep.MeasuredPeakBytes <= budget
	// Parity tolerance follows the loosest precision the plan assigned:
	// f32 spectra round at float32 accuracy, f64 at ~1e-9 (with headroom
	// for the single-shot reference running different methods).
	rep.Tolerance = 100 * conv.PrecF64.Tol()
	for _, a := range bp.Layers {
		if a.Precision == conv.PrecF32 {
			rep.Tolerance = conv.PrecF32.Tol()
		}
	}
	rep.MaxAbsDiff = pTiled[0].MaxAbsDiff(pRef)
	rep.TolEqual = rep.MaxAbsDiff <= rep.Tolerance
	rep.Blocks = st.Blocks
	rep.Rounds = st.Rounds

	rep.OK = rep.BitwiseEqual && rep.TolEqual && rep.WithinBudget
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("selfcheck failed: bitwise=%v tol=%v within_budget=%v",
			rep.BitwiseEqual, rep.TolEqual, rep.WithinBudget)
	}
	return nil
}

// singleShot clones the network at the whole-volume shape and runs one
// round — the reference tiling must reproduce.
func singleShot(n *znn.Network, vol *tensor.Tensor) (*tensor.Tensor, error) {
	single, err := n.WithInputShape(vol.S)
	if err != nil {
		return nil, err
	}
	defer single.Close()
	outs, err := single.Infer(vol.Clone())
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}
