package tile

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"znn/internal/conv"
	"znn/internal/net"
	"znn/internal/tensor"
	"znn/internal/train"
)

// buildEngine compiles spec at the given input shape. Width 2 keeps direct
// convolution's two-term fan-in sums order-independent, so direct-forced
// tiled inference is bitwise comparable to single-shot.
func buildEngine(t *testing.T, spec string, in tensor.Shape, outW int, method conv.Method, prec conv.Precision) *train.Engine {
	t.Helper()
	nw, err := net.Build(net.MustParse(spec), net.BuildOptions{
		Width: 2, OutWidth: outW, InputShape: in, Seed: 41,
		Method: method,
	})
	if err != nil {
		t.Fatal(err)
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: 2, Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func randomVolume(s tensor.Shape, seed int64) *tensor.Tensor {
	return tensor.RandomUniform(rand.New(rand.NewSource(seed)), s, -1, 1)
}

// runTiled streams vol through a fresh block engine for the grid and
// returns the stitched outputs, one volume per network output.
func runTiled(t *testing.T, spec string, g *Grid, vol *tensor.Tensor, outW int,
	method conv.Method, prec conv.Precision, k, window int) ([]*tensor.Tensor, Stats) {
	t.Helper()
	en := buildEngine(t, spec, g.BlockIn, outW, method, prec)
	defer en.Close()
	outs := make([]*tensor.Tensor, outW)
	ws := make([]Writer, outW)
	for i := range outs {
		outs[i] = tensor.New(g.Out)
		ws[i] = MemWriter{T: outs[i]}
	}
	st, err := Run(Config{
		Prog: en.Program(), Grid: g,
		In: MemReader{T: vol}, Out: ws,
		K: k, Window: window,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Blocks != g.NumBlocks() {
		t.Fatalf("Stats.Blocks = %d, want %d", st.Blocks, g.NumBlocks())
	}
	return outs, st
}

// singleShot runs whole-volume inference in one round — the reference the
// tiler must reproduce.
func singleShot(t *testing.T, spec string, vol *tensor.Tensor, outW int,
	method conv.Method, prec conv.Precision) []*tensor.Tensor {
	t.Helper()
	en := buildEngine(t, spec, vol.S, outW, method, prec)
	defer en.Close()
	outs, err := en.Infer([][]*tensor.Tensor{{vol.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

// TestStreamBitIdenticalDirect is the tentpole invariant: with
// direct-forced (spatial) convolution, the stitched tiled output is
// bitwise identical to single-shot inference for every block size —
// dividing, ragged, single-block, one-voxel blocks — in both the pipelined
// and sequential executors at several fused widths.
func TestStreamBitIdenticalDirect(t *testing.T) {
	const spec = "C3-Trelu-C3-Ttanh" // FOV 5
	vol := randomVolume(tensor.Cube(14), 7)
	ref := singleShot(t, spec, vol, 2, conv.Direct, conv.PrecF64)

	for _, blockOut := range []int{3, 4, 7, 10} { // 10³ output: divides, ragged, full
		for _, window := range []int{1, 2} { // sequential baseline, overlapped
			g, err := NewGrid(vol.S, 5, blockOut)
			if err != nil {
				t.Fatal(err)
			}
			outs, _ := runTiled(t, spec, g, vol, 2, conv.Direct, conv.PrecF64, 2, window)
			for oi := range outs {
				if !outs[oi].Equal(ref[oi]) {
					t.Errorf("block %d window=%d output %d: tiled differs from single-shot (max |Δ| = %g)",
						blockOut, window, oi, outs[oi].MaxAbsDiff(ref[oi]))
				}
			}
		}
	}
}

// TestStreamBitIdenticalDirectResidues puts the x block boundaries of an
// all-direct net at every residue mod 16 (block 17 over a 272-voxel output
// axis), so each output voxel lands at a different place in the direct
// kernel's vector blocks, overlapped final block and scalar tail in some
// block than in the single-shot run — and the stitched output must still be
// bitwise single-shot.
func TestStreamBitIdenticalDirectResidues(t *testing.T) {
	const spec = "C3-Trelu-C3-Ttanh" // FOV 5
	vol := randomVolume(tensor.S3(16*17+4, 7, 6), 10)
	ref := singleShot(t, spec, vol, 1, conv.Direct, conv.PrecF64)
	g, err := NewGrid(vol.S, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < g.NumBlocks(); i++ {
		seen[g.Block(i).In.X%16] = true
	}
	if len(seen) != 16 {
		t.Fatalf("block x origins cover %d residues mod 16, want 16", len(seen))
	}
	outs, _ := runTiled(t, spec, g, vol, 1, conv.Direct, conv.PrecF64, 2, 2)
	if !outs[0].Equal(ref[0]) {
		t.Errorf("tiled differs from single-shot (max |Δ| = %g)", outs[0].MaxAbsDiff(ref[0]))
	}
}

// TestStreamOneVoxelBlocks drives the degenerate every-block-one-voxel
// decomposition (64 rounds on a 4³ output) and still demands bitwise parity.
func TestStreamOneVoxelBlocks(t *testing.T) {
	const spec = "C3-Trelu-C2" // FOV 4
	vol := randomVolume(tensor.Cube(7), 8)
	ref := singleShot(t, spec, vol, 1, conv.Direct, conv.PrecF64)
	g, err := NewGrid(vol.S, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks() != 64 {
		t.Fatalf("expected 64 one-voxel blocks, got %d", g.NumBlocks())
	}
	outs, st := runTiled(t, spec, g, vol, 1, conv.Direct, conv.PrecF64, 3, 2)
	if !outs[0].Equal(ref[0]) {
		t.Errorf("one-voxel blocks differ from single-shot (max |Δ| = %g)", outs[0].MaxAbsDiff(ref[0]))
	}
	if st.Rounds != (64+2)/3 {
		t.Errorf("Stats.Rounds = %d, want %d", st.Rounds, (64+2)/3)
	}
}

// TestStreamAnisotropic tiles a thin 7×20×12 volume — the block network is
// built at the clamped anisotropic block shape, the y axis leaves a
// 1-voxel-thick residual block, and the result stays bitwise.
func TestStreamAnisotropic(t *testing.T) {
	const spec = "C3-Trelu-C3" // FOV 5
	vol := randomVolume(tensor.S3(7, 20, 12), 9)
	ref := singleShot(t, spec, vol, 1, conv.Direct, conv.PrecF64)
	g, err := NewGrid(vol.S, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	// x clamps to the full 3-voxel output; y is ragged: 16 = 5+5+5+1.
	if g.BlockOut != tensor.S3(3, 5, 5) {
		t.Fatalf("BlockOut = %v, want (3,5,5)", g.BlockOut)
	}
	outs, _ := runTiled(t, spec, g, vol, 1, conv.Direct, conv.PrecF64, 2, 3)
	if !outs[0].Equal(ref[0]) {
		t.Errorf("anisotropic tiling differs from single-shot (max |Δ| = %g)", outs[0].MaxAbsDiff(ref[0]))
	}
}

// TestStreamFFTTolerance covers the FFT regime: summation order inside an
// FFT depends on the transform extent, so tiled-vs-single-shot parity is at
// the precision tolerance — while two tiled runs at the same block size
// stay bitwise identical run to run.
func TestStreamFFTTolerance(t *testing.T) {
	const spec = "C3-Trelu-C3-Ttanh" // FOV 5
	vol := randomVolume(tensor.Cube(13), 10)
	ref := singleShot(t, spec, vol, 1, conv.FFT, conv.PrecF64)
	g, err := NewGrid(vol.S, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := runTiled(t, spec, g, vol, 1, conv.FFT, conv.PrecF64, 2, 2)
	b, _ := runTiled(t, spec, g, vol, 1, conv.FFT, conv.PrecF64, 2, 2)
	if !a[0].ApproxEqual(ref[0], conv.PrecF64.Tol()) {
		t.Errorf("FFT tiled vs single-shot: max |Δ| = %g exceeds tol %g", a[0].MaxAbsDiff(ref[0]), conv.PrecF64.Tol())
	}
	if !a[0].Equal(b[0]) {
		t.Errorf("two tiled FFT runs at one block size differ (max |Δ| = %g)", a[0].MaxAbsDiff(b[0]))
	}
}

// TestStreamF32Parity stitches the same volume at PrecF32 and PrecF64:
// the f32 stream must track the f64 stream within float32 tolerance
// (scaled by output magnitude ~1 after tanh).
func TestStreamF32Parity(t *testing.T) {
	const spec = "C3-Trelu-C3-Ttanh" // FOV 5
	vol := randomVolume(tensor.Cube(12), 11)
	g, err := NewGrid(vol.S, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	o64, _ := runTiled(t, spec, g, vol, 1, conv.FFT, conv.PrecF64, 2, 2)
	o32, _ := runTiled(t, spec, g, vol, 1, conv.FFT, conv.PrecF32, 2, 2)
	if !o32[0].ApproxEqual(o64[0], conv.PrecF32.Tol()) {
		t.Errorf("f32 vs f64 tiled streams: max |Δ| = %g exceeds tol %g",
			o32[0].MaxAbsDiff(o64[0]), conv.PrecF32.Tol())
	}
}

// TestStreamRawFiles runs the executor against raw on-disk volumes — the
// znn-infer path — and checks the stitched file matches the in-memory run
// bitwise at f64.
func TestStreamRawFiles(t *testing.T) {
	const spec = "C2-Trelu-C2" // FOV 3
	vol := randomVolume(tensor.Cube(9), 12)
	g, err := NewGrid(vol.S, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	memOut, _ := runTiled(t, spec, g, vol, 1, conv.Direct, conv.PrecF64, 2, 2)

	dir := t.TempDir()
	inPath, outPath := dir+"/in.raw", dir+"/out.raw"
	if err := writeRawFile(inPath, vol, F64); err != nil {
		t.Fatal(err)
	}
	rf, wf, err := openRawPair(inPath, outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	defer wf.Close()

	en := buildEngine(t, spec, g.BlockIn, 1, conv.Direct, conv.PrecF64)
	defer en.Close()
	var last Progress
	st, err := Run(Config{
		Prog: en.Program(), Grid: g,
		In:         NewRawReader(rf, vol.S, F64),
		Out:        []Writer{NewRawWriter(wf, g.Out, F64)},
		K:          2,
		OnProgress: func(p Progress) { last = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.BlocksDone != g.NumBlocks() || last.BlocksTotal != g.NumBlocks() {
		t.Errorf("final progress %+v, want %d/%d blocks", last, g.NumBlocks(), g.NumBlocks())
	}
	if st.BytesStitched != int64(g.Out.Volume())*8 {
		t.Errorf("BytesStitched = %d, want %d", st.BytesStitched, g.Out.Volume()*8)
	}

	back, err := readRawFile(outPath, g.Out, F64)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(memOut[0]) {
		t.Errorf("raw-file stream differs from in-memory stream (max |Δ| = %g)", back.MaxAbsDiff(memOut[0]))
	}
}

// TestStreamConfigErrors pins the executor's shape diagnostics: a network
// whose input does not match the grid block must fail with the
// WithInputShape hint rather than compute garbage.
func TestStreamConfigErrors(t *testing.T) {
	const spec = "C3-Trelu-C3" // FOV 5
	vol := randomVolume(tensor.Cube(12), 13)
	g, err := NewGrid(vol.S, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(g.Out)

	if _, err := Run(Config{}); err == nil {
		t.Error("empty config: want error")
	}

	// Network built at the wrong block shape.
	en := buildEngine(t, spec, tensor.Cube(7), 1, conv.Direct, conv.PrecF64)
	_, err = Run(Config{Prog: en.Program(), Grid: g, In: MemReader{T: vol}, Out: []Writer{MemWriter{T: out}}})
	en.Close()
	if err == nil {
		t.Error("mismatched network input shape: want error")
	}

	en = buildEngine(t, spec, g.BlockIn, 1, conv.Direct, conv.PrecF64)
	defer en.Close()
	// Wrong writer count.
	if _, err := Run(Config{Prog: en.Program(), Grid: g, In: MemReader{T: vol}}); err == nil {
		t.Error("no writers for one output: want error")
	}
	// Wrong writer shape.
	bad := tensor.New(tensor.Cube(3))
	if _, err := Run(Config{Prog: en.Program(), Grid: g, In: MemReader{T: vol}, Out: []Writer{MemWriter{T: bad}}}); err == nil {
		t.Error("writer shape mismatch: want error")
	}
	// Wrong reader shape.
	small := tensor.New(tensor.Cube(11))
	if _, err := Run(Config{Prog: en.Program(), Grid: g, In: MemReader{T: small}, Out: []Writer{MemWriter{T: out}}}); err == nil {
		t.Error("reader shape mismatch: want error")
	}
}

// TestStreamPropagatesReadError checks a failing reader surfaces its error
// and the in-flight rounds drain cleanly (no hang, no panic).
func TestStreamPropagatesReadError(t *testing.T) {
	const spec = "C3-Trelu-C3" // FOV 5
	vol := randomVolume(tensor.Cube(14), 14)
	g, err := NewGrid(vol.S, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	en := buildEngine(t, spec, g.BlockIn, 1, conv.Direct, conv.PrecF64)
	defer en.Close()
	out := tensor.New(g.Out)
	fr := &failingReader{MemReader{T: vol}, 5}
	_, err = Run(Config{
		Prog: en.Program(), Grid: g,
		In: fr, Out: []Writer{MemWriter{T: out}},
		K: 2,
	})
	if err == nil {
		t.Fatal("failing reader: want error")
	}
}

func writeRawFile(path string, vol *tensor.Tensor, d DType) error {
	buf := make([]byte, vol.S.Volume()*d.Size())
	encodeRow(buf, vol.Data, d)
	return os.WriteFile(path, buf, 0o644)
}

func readRawFile(path string, s tensor.Shape, d DType) (*tensor.Tensor, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := tensor.New(s)
	decodeRow(t.Data, b, d)
	return t, nil
}

func openRawPair(in, out string) (*os.File, *os.File, error) {
	rf, err := os.Open(in)
	if err != nil {
		return nil, nil, err
	}
	wf, err := os.Create(out)
	if err != nil {
		rf.Close()
		return nil, nil, err
	}
	return rf, wf, nil
}

type failingReader struct {
	MemReader
	after int
}

func (f *failingReader) ReadBlock(dst *tensor.Tensor, at tensor.Shape) (int64, error) {
	if f.after--; f.after < 0 {
		return 0, fmt.Errorf("injected read failure")
	}
	return f.MemReader.ReadBlock(dst, at)
}
