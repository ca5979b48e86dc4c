package tile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"znn/internal/tensor"
)

// Reader supplies block inputs to the executor. ReadBlock fills dst (whose
// shape is the grid's BlockIn) with the input region starting at voxel
// offset at, returning the number of source bytes consumed. The executor
// calls ReadBlock from a single goroutine, so implementations may reuse
// internal scratch without locking.
type Reader interface {
	Shape() tensor.Shape
	ReadBlock(dst *tensor.Tensor, at tensor.Shape) (int64, error)
}

// Writer receives stitched block outputs. WriteBlock copies b.Region
// voxels of src (a block output, shape grid.BlockOut) from offset b.Src to
// offset b.Dst of the output volume, returning the bytes written. The
// executor stitches from a single goroutine.
type Writer interface {
	Shape() tensor.Shape
	WriteBlock(src *tensor.Tensor, b Block) (int64, error)
}

// MemReader reads blocks out of an in-memory volume.
type MemReader struct{ T *tensor.Tensor }

// Shape returns the volume shape.
func (m MemReader) Shape() tensor.Shape { return m.T.S }

// ReadBlock copies the region row by row (x-runs are contiguous).
func (m MemReader) ReadBlock(dst *tensor.Tensor, at tensor.Shape) (int64, error) {
	bs, vs := dst.S, m.T.S
	for z := 0; z < bs.Z; z++ {
		for y := 0; y < bs.Y; y++ {
			si := vs.Index(at.X, at.Y+y, at.Z+z)
			di := bs.Index(0, y, z)
			copy(dst.Data[di:di+bs.X], m.T.Data[si:si+bs.X])
		}
	}
	return int64(bs.Volume()) * 8, nil
}

// MemWriter stitches blocks into an in-memory volume.
type MemWriter struct{ T *tensor.Tensor }

// Shape returns the volume shape.
func (m MemWriter) Shape() tensor.Shape { return m.T.S }

// WriteBlock copies the stitch region row by row.
func (m MemWriter) WriteBlock(src *tensor.Tensor, b Block) (int64, error) {
	ss, vs := src.S, m.T.S
	for z := 0; z < b.Region.Z; z++ {
		for y := 0; y < b.Region.Y; y++ {
			si := ss.Index(b.Src.X, b.Src.Y+y, b.Src.Z+z)
			di := vs.Index(b.Dst.X, b.Dst.Y+y, b.Dst.Z+z)
			copy(m.T.Data[di:di+b.Region.X], src.Data[si:si+b.Region.X])
		}
	}
	return int64(b.Region.Volume()) * 8, nil
}

// DType is the on-disk element type of a raw volume file.
type DType int

// Raw volume element types: little-endian float64 or float32, x-fastest
// (the tensor layout, written plane by plane).
const (
	F64 DType = iota
	F32
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	if d == F32 {
		return 4
	}
	return 8
}

func (d DType) String() string {
	if d == F32 {
		return "f32"
	}
	return "f64"
}

// VolumeBytes returns the byte size of a raw volume of shape s at dtype d.
// It errors when an extent is not positive or the size overflows int64:
// shapes come from flags and requests, and a wrapped size would pass any
// size check.
func VolumeBytes(s tensor.Shape, d DType) (int64, error) {
	n := int64(d.Size())
	for _, e := range []int{s.X, s.Y, s.Z} {
		if e <= 0 {
			return 0, fmt.Errorf("tile: volume %v has a non-positive extent", s)
		}
		if n > math.MaxInt64/int64(e) {
			return 0, fmt.Errorf("tile: volume %v at %s is over %d bytes", s, d, int64(math.MaxInt64))
		}
		n *= int64(e)
	}
	return n, nil
}

// ParseDType reads "f64"/"f32" (the CLI flag values).
func ParseDType(s string) (DType, error) {
	switch s {
	case "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return 0, fmt.Errorf("tile: unknown dtype %q (want f64 or f32)", s)
}

// RawVolume is a raw little-endian volume file (or any ReaderAt/WriterAt):
// elements of dtype d in x-fastest order, no header — the interchange
// format znn-infer consumes and produces. One RawVolume backs either the
// Reader or the Writer role depending on which constructor built it.
type RawVolume struct {
	shape   tensor.Shape
	dtype   DType
	r       io.ReaderAt
	w       io.WriterAt
	scratch []byte
}

// NewRawReader wraps an io.ReaderAt holding a raw volume.
func NewRawReader(r io.ReaderAt, shape tensor.Shape, d DType) *RawVolume {
	return &RawVolume{shape: shape, dtype: d, r: r}
}

// NewRawWriter wraps an io.WriterAt receiving a raw volume. A file gets the
// volume's bytes reserved up front (best effort, see reserve), so it has its
// full size from here on.
func NewRawWriter(w io.WriterAt, shape tensor.Shape, d DType) *RawVolume {
	if f, ok := w.(*os.File); ok {
		if n, err := VolumeBytes(shape, d); err == nil {
			reserve(f, n)
		}
	}
	return &RawVolume{shape: shape, dtype: d, w: w}
}

// Shape returns the volume shape.
func (rv *RawVolume) Shape() tensor.Shape { return rv.shape }

func (rv *RawVolume) row(n int) []byte {
	need := n * rv.dtype.Size()
	if cap(rv.scratch) < need {
		rv.scratch = make([]byte, need)
	}
	return rv.scratch[:need]
}

// ReadBlock reads the block region one contiguous x-run at a time.
func (rv *RawVolume) ReadBlock(dst *tensor.Tensor, at tensor.Shape) (int64, error) {
	if rv.r == nil {
		return 0, fmt.Errorf("tile: RawVolume is write-only")
	}
	bs := dst.S
	es := int64(rv.dtype.Size())
	buf := rv.row(bs.X)
	var n int64
	for z := 0; z < bs.Z; z++ {
		for y := 0; y < bs.Y; y++ {
			off := es * int64(rv.shape.Index(at.X, at.Y+y, at.Z+z))
			if _, err := rv.r.ReadAt(buf, off); err != nil {
				return n, fmt.Errorf("tile: read at voxel (%d,%d,%d): %w", at.X, at.Y+y, at.Z+z, err)
			}
			n += int64(len(buf))
			decodeRow(dst.Data[bs.Index(0, y, z):], buf, rv.dtype)
		}
	}
	return n, nil
}

// WriteBlock writes the stitch region one contiguous x-run at a time.
func (rv *RawVolume) WriteBlock(src *tensor.Tensor, b Block) (int64, error) {
	if rv.w == nil {
		return 0, fmt.Errorf("tile: RawVolume is read-only")
	}
	ss := src.S
	es := int64(rv.dtype.Size())
	buf := rv.row(b.Region.X)
	var n int64
	for z := 0; z < b.Region.Z; z++ {
		for y := 0; y < b.Region.Y; y++ {
			si := ss.Index(b.Src.X, b.Src.Y+y, b.Src.Z+z)
			encodeRow(buf, src.Data[si:si+b.Region.X], rv.dtype)
			off := es * int64(rv.shape.Index(b.Dst.X, b.Dst.Y+y, b.Dst.Z+z))
			if _, err := rv.w.WriteAt(buf, off); err != nil {
				return n, fmt.Errorf("tile: write at voxel (%d,%d,%d): %w", b.Dst.X, b.Dst.Y+y, b.Dst.Z+z, err)
			}
			n += int64(len(buf))
		}
	}
	return n, nil
}

func decodeRow(dst []float64, src []byte, d DType) {
	if d == F32 {
		for i := range dst[:len(src)/4] {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		}
		return
	}
	for i := range dst[:len(src)/8] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func encodeRow(dst []byte, src []float64, d DType) {
	if d == F32 {
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}
