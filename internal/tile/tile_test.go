package tile

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"znn/internal/tensor"
)

// TestGridPartition checks, over a matrix of volume/block/FOV shapes
// including ragged and anisotropic cases, that the stitch regions are
// disjoint, cover the output volume exactly, and that every block's input
// region lies inside the input volume.
func TestGridPartition(t *testing.T) {
	cases := []struct {
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
	for _, c := range cases {
		g, err := NewGrid(c.vol, c.fov, c.out)
		if err != nil {
			t.Fatalf("NewGrid(%v, %d, %d): %v", c.vol, c.fov, c.out, err)
		}
		halo := c.fov - 1
		if want := c.vol.Sub(tensor.S3(halo, halo, halo)); g.Out != want {
			t.Fatalf("%v fov %d: Out = %v, want %v", c.vol, c.fov, g.Out, want)
		}
		if g.BlockIn != g.BlockOut.Add(tensor.S3(halo, halo, halo)) {
			t.Fatalf("BlockIn %v ≠ BlockOut %v + halo", g.BlockIn, g.BlockOut)
		}
		seen := tensor.New(g.Out)
		for i := 0; i < g.NumBlocks(); i++ {
			b := g.Block(i)
			if b.Index != i {
				t.Fatalf("block %d carries index %d", i, b.Index)
			}
			// Input region inside the volume.
			if b.In.X < 0 || b.In.Y < 0 || b.In.Z < 0 ||
				b.In.X+g.BlockIn.X > c.vol.X || b.In.Y+g.BlockIn.Y > c.vol.Y || b.In.Z+g.BlockIn.Z > c.vol.Z {
				t.Fatalf("block %d input region %v+%v outside volume %v", i, b.In, g.BlockIn, c.vol)
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
						idx := g.Out.Index(b.Dst.X+x, b.Dst.Y+y, b.Dst.Z+z)
						seen.Data[idx]++
					}
				}
			}
		}
		for i, v := range seen.Data {
			if v != 1 {
				x, y, z := g.Out.Coords(i)
				t.Fatalf("%v fov %d out %d: output voxel (%d,%d,%d) stitched %v times", c.vol, c.fov, c.out, x, y, z, v)
			}
		}
		if w := g.HaloWaste(); w < 0 || w >= 1 {
			t.Fatalf("HaloWaste = %v out of range", w)
		}
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
	w := NewRawWriter(f, tensor.S3(10, 9, 8), F32)
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != w.Bytes() {
		if err := reserve(f, w.Bytes()); err != nil {
			t.Skipf("cannot reserve here: %v", err)
		}
		t.Errorf("file holds %d bytes after NewRawWriter, want %d", fi.Size(), w.Bytes())
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
