package tile

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"znn/internal/tensor"
)

// gridCases is a matrix of volume/block/FOV shapes including ragged and
// anisotropic cases; they also seed FuzzGrid.
var gridCases = []struct {
	vol      tensor.Shape
	fov, out int
}{
	{tensor.Cube(16), 5, 4},      // divides evenly
	{tensor.Cube(16), 5, 5},      // ragged: 12 = 5+5+2
	{tensor.Cube(16), 5, 12},     // single block
	{tensor.Cube(16), 5, 40},     // clamped to the whole output
	{tensor.Cube(10), 5, 1},      // every block one output voxel
	{tensor.S3(7, 20, 20), 5, 5}, // thin volume; 16 = 5·3+1 leaves 1-voxel residual
	{tensor.S3(7, 96, 33), 3, 7}, // anisotropic, ragged on two axes
	{tensor.S3(9, 9, 31), 9, 4},  // one axis exactly the FOV
}

// TestGridPartition checks checkGrid's invariants over gridCases.
func TestGridPartition(t *testing.T) {
	for _, c := range gridCases {
		g, err := NewGrid(c.vol, c.fov, c.out)
		if err != nil {
			t.Fatalf("NewGrid(%v, %d, %d): %v", c.vol, c.fov, c.out, err)
		}
		checkGrid(t, g, c.vol, c.fov)
	}
}

// FuzzGrid: over extents 1–64, FOV 1–16 and block extents −2–70, NewGrid
// fails exactly when the inputs cannot be tiled (an axis under the field
// of view, or a block output extent under 1), and every grid it returns
// passes checkGrid.
func FuzzGrid(f *testing.F) {
	for _, c := range gridCases {
		f.Add(uint8(c.vol.X-1), uint8(c.vol.Y-1), uint8(c.vol.Z-1), uint8(c.fov-1), uint8(c.out+2))
	}
	f.Add(uint8(3), uint8(15), uint8(15), uint8(4), uint8(7))  // an axis under the FOV
	f.Add(uint8(15), uint8(15), uint8(15), uint8(4), uint8(1)) // block extent −1
	f.Fuzz(func(t *testing.T, x, y, z, fov, block uint8) {
		vol := tensor.S3(1+int(x)%64, 1+int(y)%64, 1+int(z)%64)
		fv, out := 1+int(fov)%16, int(block)%73-2
		g, err := NewGrid(vol, fv, out)
		tileable := vol.X >= fv && vol.Y >= fv && vol.Z >= fv && out >= 1
		if tileable != (err == nil) {
			t.Fatalf("NewGrid(%v, %d, %d): err %v, tileable %v", vol, fv, out, err, tileable)
		}
		if err == nil {
			checkGrid(t, g, vol, fv)
		}
	})
}

// checkGrid asserts that g, the grid of volume vol at field of view fov,
// has the output and block shapes the halo implies, that its stitch regions
// cover every output voxel exactly once, and that every block's input region
// lies inside the volume, its stitch region inside the block output, and its
// input and output positions agree.
func checkGrid(t *testing.T, g *Grid, vol tensor.Shape, fov int) {
	t.Helper()
	halo := fov - 1
	if want := vol.Sub(tensor.S3(halo, halo, halo)); g.Out != want {
		t.Fatalf("%v fov %d: Out = %v, want %v", vol, fov, g.Out, want)
	}
	if g.BlockIn != g.BlockOut.Add(tensor.S3(halo, halo, halo)) {
		t.Fatalf("BlockIn %v ≠ BlockOut %v + halo", g.BlockIn, g.BlockOut)
	}
	seen := make([]int, g.Out.Volume())
	for i := 0; i < g.NumBlocks(); i++ {
		b := g.Block(i)
		if b.Index != i {
			t.Fatalf("block %d carries index %d", i, b.Index)
		}
		// Input region inside the volume.
		if b.In.X < 0 || b.In.Y < 0 || b.In.Z < 0 ||
			b.In.X+g.BlockIn.X > vol.X || b.In.Y+g.BlockIn.Y > vol.Y || b.In.Z+g.BlockIn.Z > vol.Z {
			t.Fatalf("block %d input region %v+%v outside volume %v", i, b.In, g.BlockIn, vol)
		}
		// Stitch region inside the block output.
		if b.Src.X+b.Region.X > g.BlockOut.X || b.Src.Y+b.Region.Y > g.BlockOut.Y || b.Src.Z+b.Region.Z > g.BlockOut.Z {
			t.Fatalf("block %d stitch src %v+%v outside block output %v", i, b.Src, b.Region, g.BlockOut)
		}
		// The block's output position must agree with its input
		// position: output voxel p needs input window [p, p+fov).
		if b.Dst.Sub(b.Src) != b.In {
			t.Fatalf("block %d: Dst %v − Src %v ≠ In %v (output/input positions disagree)", i, b.Dst, b.Src, b.In)
		}
		for z := 0; z < b.Region.Z; z++ {
			for y := 0; y < b.Region.Y; y++ {
				for x := 0; x < b.Region.X; x++ {
					seen[g.Out.Index(b.Dst.X+x, b.Dst.Y+y, b.Dst.Z+z)]++
				}
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			x, y, z := g.Out.Coords(i)
			t.Fatalf("%v fov %d: output voxel (%d,%d,%d) stitched %d times", vol, fov, x, y, z, n)
		}
	}
	if w := g.HaloWaste(); w < 0 || w >= 1 {
		t.Fatalf("HaloWaste = %v out of range", w)
	}
}

// TestGridErrors pins the diagnosable failure modes: a block smaller than
// the field of view, a volume smaller than the field of view, and
// degenerate shapes.
func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(tensor.Cube(16), 5, 0); err == nil {
		t.Error("blockOut 0: want error")
	}
	if _, err := NewGrid(tensor.Cube(4), 5, 4); err == nil {
		t.Error("volume 4³ with FOV 5: want error")
	}
	if _, err := NewGrid(tensor.S3(16, 16, 3), 5, 4); err == nil {
		t.Error("volume with one axis under the FOV: want error")
	}
	if _, err := NewGrid(tensor.Shape{}, 5, 4); err == nil {
		t.Error("zero volume: want error")
	}
	if _, err := NewGrid(tensor.Cube(16), 0, 4); err == nil {
		t.Error("FOV 0: want error")
	}
	// The input-extent conversion errors clearly below the FOV…
	if _, err := BlockOutFromIn(8, 4); err == nil {
		t.Error("block input 4 under FOV 8: want error")
	}
	// …and is exact at and above it.
	if out, err := BlockOutFromIn(8, 8); err != nil || out != 1 {
		t.Errorf("BlockOutFromIn(8, 8) = %d, %v; want 1", out, err)
	}
	if out, err := BlockOutFromIn(8, 20); err != nil || out != 13 {
		t.Errorf("BlockOutFromIn(8, 20) = %d, %v; want 13", out, err)
	}
}

// TestHaloWasteFormula pins HaloWaste to the 1 − (b/(b+FOV−1))³ shape the
// planner scores for isotropic full blocks.
func TestHaloWasteFormula(t *testing.T) {
	g, err := NewGrid(tensor.Cube(100), 9, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (16.0*16*16)/(24.0*24*24)
	if got := g.HaloWaste(); got != want {
		t.Errorf("HaloWaste = %v, want %v", got, want)
	}
}

// TestMemRoundTrip stitches blocks read from one volume straight into
// another: with the identity "network" (region copy) the result must be
// the original's valid region.
func TestMemRoundTrip(t *testing.T) {
	vol := tensor.New(tensor.S3(11, 13, 7))
	rng := rand.New(rand.NewSource(1))
	for i := range vol.Data {
		vol.Data[i] = rng.NormFloat64()
	}
	// FOV 1: input and output geometry coincide, blocks are plain tiles.
	g, err := NewGrid(vol.S, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(g.Out)
	r, w := MemReader{T: vol}, MemWriter{T: out}
	blockBuf := tensor.New(g.BlockIn)
	for i := 0; i < g.NumBlocks(); i++ {
		b := g.Block(i)
		if _, err := r.ReadBlock(blockBuf, b.In); err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteBlock(blockBuf, b); err != nil {
			t.Fatal(err)
		}
	}
	if !vol.Equal(out) {
		t.Error("FOV-1 identity round trip differs from the source volume")
	}
}

// TestRawVolumeRoundTrip drives the raw file reader/writer at both dtypes:
// blocks read from a raw file and stitched into another must reproduce the
// volume (bitwise at f64; at float32 rounding for f32).
func TestRawVolumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	vol := tensor.New(tensor.S3(10, 9, 8))
	rng := rand.New(rand.NewSource(2))
	for i := range vol.Data {
		vol.Data[i] = float64(float32(rng.NormFloat64())) // exact in both dtypes
	}
	for _, d := range []DType{F64, F32} {
		in := filepath.Join(dir, "in-"+d.String())
		out := filepath.Join(dir, "out-"+d.String())

		// Write the source file through a full-volume WriteBlock.
		f, err := os.Create(in)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewGrid(vol.S, 1, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRawWriter(f, vol.S, d).WriteBlock(vol, full.Block(0)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		g, err := NewGrid(vol.S, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := os.Open(in)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRawReader(rf, vol.S, d)
		w := NewRawWriter(wf, g.Out, d)
		buf := tensor.New(g.BlockIn)
		for i := 0; i < g.NumBlocks(); i++ {
			b := g.Block(i)
			if _, err := r.ReadBlock(buf, b.In); err != nil {
				t.Fatal(err)
			}
			if _, err := w.WriteBlock(buf, b); err != nil {
				t.Fatal(err)
			}
		}
		rf.Close()
		if err := wf.Close(); err != nil {
			t.Fatal(err)
		}

		// Read the stitched file back whole and compare.
		of, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		back := tensor.New(vol.S)
		if _, err := NewRawReader(of, vol.S, d).ReadBlock(back, tensor.S3(0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		of.Close()
		if !vol.Equal(back) {
			t.Errorf("dtype %s: raw round trip differs", d)
		}
	}
}

// TestRawWriterReservesFile: a file writer has the volume's full size before
// the first block is stitched, wherever the filesystem can reserve it.
func TestRawWriterReservesFile(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	NewRawWriter(f, tensor.S3(10, 9, 8), F32)
	const want = 10 * 9 * 8 * 4
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		if err := reserve(f, want); err != nil {
			t.Skipf("cannot reserve here: %v", err)
		}
		t.Errorf("file holds %d bytes after NewRawWriter, want %d", fi.Size(), want)
	}
}

// TestVolumeBytes: sizes are exact, and shapes whose byte count wraps
// int64 (2097152³ at f64 is exactly 2⁶⁶ bytes, 3000000³ wraps negative)
// or has a non-positive extent are refused with an error saying why.
func TestVolumeBytes(t *testing.T) {
	if n, err := VolumeBytes(tensor.S3(10, 9, 8), F32); err != nil || n != 10*9*8*4 {
		t.Errorf("VolumeBytes(10x9x8, f32) = %d, %v; want %d", n, err, 10*9*8*4)
	}
	for _, c := range []struct {
		s    tensor.Shape
		want string
	}{
		{tensor.Cube(2097152), "over"},
		{tensor.Cube(3000000), "over"},
		{tensor.S3(4, 0, 4), "non-positive"},
		{tensor.S3(4, 4, -1), "non-positive"},
	} {
		if n, err := VolumeBytes(c.s, F64); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("VolumeBytes(%v, f64) = %d, %v; want an error saying %q", c.s, n, err, c.want)
		}
	}
}

// TestParseDType covers the flag values.
func TestParseDType(t *testing.T) {
	if d, err := ParseDType("f32"); err != nil || d != F32 || d.Size() != 4 {
		t.Errorf("ParseDType(f32) = %v, %v", d, err)
	}
	if d, err := ParseDType("float64"); err != nil || d != F64 || d.Size() != 8 {
		t.Errorf("ParseDType(float64) = %v, %v", d, err)
	}
	if _, err := ParseDType("int8"); err == nil {
		t.Error("ParseDType(int8): want error")
	}
}
