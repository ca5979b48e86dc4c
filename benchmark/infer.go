package main

import (
	"bufio"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"znn"
	"znn/internal/conv"
	"znn/internal/tensor"
	"znn/internal/tile"
)

const (
	cubeSpec = "C5-Trelu-C5-Trelu-C3-Ttanh"
	// probes is the number of seeded sub-blocks of the stitched output that
	// are compared with single-shot inference; probeOut is their extent.
	probes   = 64
	probeOut = 6
	// cubeExtent gives an output of 96^3: eight blocks of the 48^3 the
	// planner picks under the budget, none of them clipped.
	cubeExtent = 106
)

// inferInst streams a raw float32 cube on disk through tiled inference into
// another raw file, the way znn-infer does.
type inferInst struct {
	c       *runCtx
	dir     string
	vol     znn.Shape
	cube    []float64 // the cube's values: the probes' inputs, and setup's one-block volume
	inPath  string
	outPath string
	nw      *znn.Network
	first   []float32 // the output of the first pass
	passes  int       // passes compared with the first
	drift   float64   // largest difference of a later pass from the first
	last    znn.TileStats
}

func startInferCube(c *runCtx) (instance, error) {
	dir, err := os.MkdirTemp(c.outDir, "cube-")
	if err != nil {
		return nil, err
	}
	atExit(func() { os.RemoveAll(dir) })
	t := &inferInst{c: c, dir: dir, vol: znn.Cube(c.scaled(cubeExtent, 24)),
		inPath: filepath.Join(dir, "in.f32"), outPath: filepath.Join(dir, "out.f32")}
	rng := rand.New(rand.NewSource(c.seed))
	data := make([]float32, t.vol.Volume())
	t.cube = make([]float64, t.vol.Volume())
	for i := range data {
		data[i] = float32(rng.Float64()*2 - 1)
		t.cube[i] = float64(data[i])
	}
	f, err := os.Create(t.inPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := binary.Write(w, binary.LittleEndian, data); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return t, f.Close()
}

func (t *inferInst) build() (*znn.Network, error) {
	return znn.NewNetwork(cubeSpec, znn.Config{
		Width: t.c.scaled(4, 2), OutputPatch: 16, Planned: true, Float32: true,
		MemBudget: 64 << 20, Workers: workers, Seed: t.c.seed,
	})
}

// setup builds and plans the network and runs one block through it: the
// block plan for the cube, then tiled inference over a volume of exactly one
// block, which rebuilds the block network, makes its transform plans and
// warms its kernel spectra.
func (t *inferInst) setup() (float64, error) {
	if t.nw != nil {
		if err := t.nw.Close(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	nw, err := t.build()
	if err != nil {
		return 0, err
	}
	t.nw = nw
	bp, err := nw.PlanBlocks(t.vol, znn.TileOptions{})
	if err != nil {
		return 0, err
	}
	oneBlock := &znn.Tensor{S: bp.BlockIn, Data: t.cube[:bp.BlockIn.Volume()]}
	if _, _, err := nw.InferVolume(oneBlock, znn.TileOptions{}); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// pass runs the whole cube, file to file.
func (t *inferInst) pass(rec *recorder, sp int) (float64, error) {
	in, err := os.Open(t.inPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(t.outPath)
	if err != nil {
		return 0, err
	}
	outShape := t.outShape()
	call := rec.begin("znn.InferVolumeIO", sp, 0)
	st, err := t.nw.InferVolumeIO(tile.NewRawReader(in, t.vol, tile.F32),
		[]tile.Writer{tile.NewRawWriter(out, outShape, tile.F32)}, znn.TileOptions{})
	rec.end(call)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if rec != nil {
		rec.add("tile.read", call, 0, time.Duration(st.ReadNs))
		rec.add("tile.compute_wait", call, 0, time.Duration(st.ComputeNs))
		rec.add("tile.stitch", call, 0, time.Duration(st.StitchNs))
		rec.count("tile.blocks", float64(st.Blocks))
		rec.count("tile.bytes_read", float64(st.BytesRead))
	}
	t.last = st
	return float64(outShape.Volume()), nil
}

// readOutput reads the stitched output file.
func (t *inferInst) readOutput() ([]float32, error) {
	f, err := os.Open(t.outPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]float32, t.outShape().Volume())
	return out, binary.Read(bufio.NewReaderSize(f, 1<<20), binary.LittleEndian, out)
}

// compareOutput holds each pass's output against the first pass's. It must
// see the file before the next pass overwrites it.
func (t *inferInst) compareOutput() error {
	out, err := t.readOutput()
	if err != nil {
		return err
	}
	if t.first == nil {
		t.first = out
		return nil
	}
	t.passes++
	for i, v := range out {
		t.drift = math.Max(t.drift, math.Abs(float64(v-t.first[i])))
	}
	return nil
}

func (t *inferInst) outShape() znn.Shape {
	return t.vol.Sub(znn.Cube(t.nw.FieldOfView() - 1))
}

func (t *inferInst) warm() error {
	if _, err := t.pass(nil, 0); err != nil {
		return err
	}
	return t.compareOutput()
}

func (t *inferInst) measure(d time.Duration, minOps int, rec *recorder, parent int) section {
	run := func() section {
		// Comparing outputs is the benchmark's work, not the system's, so
		// it is untimed.
		return runOps(d, minOps, rec, parent, func(sp int) (float64, error) { return t.pass(rec, sp) }, t.compareOutput)
	}
	if rec == nil {
		return run()
	}
	return counted(run)
}

func (t *inferInst) verify() []check {
	// Two passes are not bitwise equal: convergent spectra are summed in
	// arrival order. They must agree to the precision's tolerance.
	tol := conv.PrecF32.Tol()
	checks := []check{okCheck("passes_agree", t.passes >= 1 && t.drift <= tol,
		"%d passes compared with the first, max abs diff %.3g, tolerance %.3g", t.passes, t.drift, tol)}

	const name = "stitched_vs_single_shot"
	halo := t.nw.FieldOfView() - 1
	outShape := t.outShape()
	stitched, err := t.readOutput()
	if err != nil {
		return append(checks, okCheck(name, false, "read output: %v", err))
	}
	single, err := t.nw.WithInputShape(znn.Cube(probeOut + halo))
	if err != nil {
		return append(checks, okCheck(name, false, "probe network: %v", err))
	}
	defer single.Close()
	rng := rand.New(rand.NewSource(t.c.seed + 1))
	var worst float64
	for p := 0; p < probes; p++ {
		ox := rng.Intn(outShape.X - probeOut + 1)
		oy := rng.Intn(outShape.Y - probeOut + 1)
		oz := rng.Intn(outShape.Z - probeOut + 1)
		in := znn.NewTensor(single.InputShape())
		for z := 0; z < in.S.Z; z++ {
			for y := 0; y < in.S.Y; y++ {
				for x := 0; x < in.S.X; x++ {
					in.Set(x, y, z, t.cube[t.vol.Index(ox+x, oy+y, oz+z)])
				}
			}
		}
		outs, err := single.Infer(in)
		if err != nil {
			return append(checks, okCheck(name, false, "probe %d: %v", p, err))
		}
		want := outs[0]
		if t.c.corrupt && p == 0 {
			want.Data[0] += 1
		}
		for z := 0; z < probeOut; z++ {
			for y := 0; y < probeOut; y++ {
				for x := 0; x < probeOut; x++ {
					got := float64(stitched[outShape.Index(ox+x, oy+y, oz+z)])
					worst = math.Max(worst, math.Abs(got-want.At(x, y, z)))
				}
			}
		}
	}
	return append(checks, okCheck(name, worst <= tol, "%d probes of %d^3, max abs diff %.3g, tolerance %.3g", probes, probeOut, worst, tol))
}

func (t *inferInst) layers(rec *recorder, parent int) (map[string]float64, error) {
	m := map[string]float64{}
	n := t.c.scaled(10, 2)
	minTime := time.Duration(t.c.scaled(150, 1)) * time.Millisecond

	// plan: the cost of the block plan, and its byte model against the
	// spectrum pools' measured peak over one pass.
	bp, err := t.nw.PlanBlocks(t.vol, znn.TileOptions{})
	if err != nil {
		return nil, err
	}
	m["plan.build_ms"] = 1e3 * timeCalls(rec, parent, "plan.build_ms", n, minTime, nil, func() {
		if _, e := t.nw.PlanBlocks(t.vol, znn.TileOptions{}); e != nil && err == nil {
			err = e
		}
	}).median
	if err != nil {
		return nil, err
	}
	resetPoolPeaks()
	sp := rec.begin("pass.pool_peak", parent, 0)
	_, err = t.pass(rec, sp)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if peak := spectraPeakBytes(); peak > 0 {
		m["plan.bytes_pred_over_meas"] = float64(bp.PeakBytes) / peak
	}

	// tile: the stages of the last pass, as the executor attributes them.
	m["tile.read_s"] = float64(t.last.ReadNs) / 1e9
	m["tile.compute_s"] = float64(t.last.ComputeNs) / 1e9
	m["tile.stitch_s"] = float64(t.last.StitchNs) / 1e9
	m["tile.halo_waste"] = bp.HaloWaste
	m["tile.blocks"] = float64(t.last.Blocks)

	// fft: one forward and one inverse float32 transform at the block
	// network's first transform shape.
	shape := conv.NewTransformer(bp.BlockIn, znn.Cube(5), tensor.Dense(), conv.FFT, false, nil).TransformShape()
	rng := rand.New(rand.NewSource(t.c.seed))
	m["fft.ns_per_voxel.f32"] = 1e9 / float64(shape.Volume()) *
		timePlan3R[float32, complex64](rec, parent, "fft.ns_per_voxel.f32", shape, rng, n, minTime)
	return m, nil
}

func (t *inferInst) close() {
	if t.nw != nil {
		t.nw.Close()
	}
	os.RemoveAll(t.dir)
}
