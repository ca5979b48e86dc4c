// Package conv implements ZNN's convolution engines (Section IV of the
// paper): direct (spatial) convolution, FFT-based convolution, sparse
// (dilated) variants of both, and FFT memoization across the forward,
// backward and update phases. Which method a layer runs is not decided
// here: internal/plan prices and picks it, and the engine sets it on each
// edge's Transformer.
//
// Convolution semantics follow the paper (and MATLAB): true convolution
// with a flipped kernel. With image size n, kernel size k and sparsity s,
//
//	valid:  out[i] = Σ_a x[i + s(k−1) − s·a]·w[a],  size n − s(k−1)
//	full:   out[m] = Σ_a x[m − s·a]·w[a],           size n + s(k−1)
//
// per axis. The backward pass is a full convolution with the reflected
// kernel, and the kernel gradient is the valid convolution of the
// reflected forward image with the backward image, subsampled at stride s
// (Section III).
//
// The spectral path (Method FFT) runs real-input r2c/c2r transforms over
// Hermitian-packed spectra at a Precision, PrecF64 (default) or PrecF32.
// Spectra of different precisions never mix: SpectrumCache keys on (shape,
// precision), and SpectralCompatible requires one precision per spectral
// sum.
//
// # Node sums
//
// Both methods sum a node, not an edge. SumForward computes Σ_i valid(x_i,
// w_i) over a node's direct in-edges and SumBackward Σ_j full(g_j, w_j)
// over its direct out-edges; SpectralForward and SpectralBackward compute
// the same sums over a node's SpectralCompatible FFT edges, multiply-
// accumulating F(x_i)·F(w_i) (or F(g_j)·F(w̃_j)) in term order into one
// pooled spectrum that is inverted once. The operand spectra are computed
// once per node image, before any sum reads them, and shared through the
// node's SpectrumCache; the kernel spectra are cached on the Transformer.
// Every sum adds its terms in the order given, so its bits do not depend on
// which task ran first. Forward and Backward on one edge are the one-term
// case of the node sums; the kernel gradient stays per edge.
//
// # Direct kernels
//
// Direct runs one kernel, which takes each kernel in one form: a TapList,
// the nonzero coefficients in fixed (z, y, x) order with their source
// offsets. Kernel sparsity is therefore not a separate method but an input
// to Direct's cost: the forward and backward passes run only the nonzero
// taps, and LayerGeom.Density scales the planner's estimates.
//
// The kernel computes its sums for a block of output planes [z0, z1), so
// the engine runs one task per (node, plane block) and no edge has an
// output tensor of its own. Loops are output-outer, tap-inner: each output
// plane is one run at the images' row stride — the gather dst[i] = Σ_t
// w_t·src_t[i], where every tap carries its own source run, 32 voxels held
// in eight YMM accumulators across every tap of every edge — whose rows are
// copied out. The backward pass is the same gather over each g_j
// zero-padded by s(k−1), with the reflected taps read straight off the
// kernel; PadCache pads a node's backward image once per halo for all the
// edges that read it. The kernel gradient is one dot product per tap and
// backward plane.
//
// Rounding contract: every output voxel is the FMA chain from +0 over the
// taps of its terms, term by term in the order given and each term's taps
// in list order — in the vector body, in the final block (which overlaps
// its predecessor instead of leaving a tail) and in the math.FMA scalar
// code alike — so its bits do not depend on where a row, plane, block or
// tile boundary falls, nor on which task ran first: tiled ≡ single-shot is
// bitwise, and so is training at any worker count. The gradient sums in the
// fixed order documented on dotGo. The AVX2+FMA assembly runs when
// internal/cpu reports VectorOK; otherwise (the purego tag, other GOARCHes,
// pre-AVX2 hosts) the Go twins in kernels.go produce the same bits — via
// math.FMA, slow only on pre-FMA x86.
//
// # Batch width
//
// A forward sweep takes the round's volumes as a slice, whatever its
// length; Forward is the one-volume case. A node sum is per volume: the
// engine runs one spectral task per (node, volume) and one direct task per
// (volume, plane block), each fetching the kernel spectra or building its
// tap table once.
package conv

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"znn/internal/tensor"
)

// checkConvArgs validates common preconditions shared by the direct
// convolution entry points.
func checkConvArgs(img, ker *tensor.Tensor, sp tensor.Sparsity) {
	if !sp.Valid() {
		panic(fmt.Sprintf("conv: invalid sparsity %v", sp))
	}
	if !img.S.Valid() || !ker.S.Valid() {
		panic(fmt.Sprintf("conv: invalid shapes image %v kernel %v", img.S, ker.S))
	}
}

// TapList is the nonzero-tap form of a kernel in (z, y, x) order, which
// fixes every voxel's accumulation order. Its offset scratch makes it
// single-goroutine.
type TapList struct {
	ks  tensor.Shape
	w   []float64 // nonzero coefficients
	at  []int     // their linear indices in the kernel
	off []int     // their source offsets, set by bind
}

// NewTapList scans the kernel once and records its nonzero taps.
func NewTapList(ker *tensor.Tensor) *TapList { return newTapList(ker, false) }

// tapLists recycles the tap lists the hot paths build per call.
var tapLists = sync.Pool{New: func() any { return new(TapList) }}

// newTapList lists the nonzero taps of ker or, with refl, of its reflection
// (reflecting every axis reverses the linear order), without building it.
func newTapList(ker *tensor.Tensor, refl bool) *TapList {
	tl := tapLists.Get().(*TapList)
	tl.ks, tl.w, tl.at = ker.S, tl.w[:0], tl.at[:0]
	last := len(ker.Data) - 1
	for a, w := range ker.Data {
		if refl {
			w = ker.Data[last-a]
		}
		if w != 0 {
			tl.w = append(tl.w, w)
			tl.at = append(tl.at, a)
		}
	}
	return tl
}

// bind sets and returns the taps' source offsets for a valid convolution
// over a source of shape s: s·(k−1−a) per axis.
func (tl *TapList) bind(s tensor.Shape, sp tensor.Sparsity) []int {
	ks := tl.ks
	tl.off = slices.Grow(tl.off[:0], len(tl.at))
	for _, a := range tl.at {
		x, y, z := a%ks.X, a/ks.X%ks.Y, a/(ks.X*ks.Y)
		tl.off = append(tl.off, s.Index(sp.X*(ks.X-1-x), sp.Y*(ks.Y-1-y), sp.Z*(ks.Z-1-z)))
	}
	return tl.off
}

// Len returns the number of nonzero taps.
func (tl *TapList) Len() int { return len(tl.w) }

// KernelShape returns the shape of the kernel the list was built from.
func (tl *TapList) KernelShape() tensor.Shape { return tl.ks }

// Nnz counts the nonzero coefficients of a kernel.
func Nnz(ker *tensor.Tensor) int {
	n := 0
	for _, w := range ker.Data {
		if w != 0 {
			n++
		}
	}
	return n
}

// Density returns the nonzero fraction of a kernel in [0, 1].
func Density(ker *tensor.Tensor) float64 {
	if len(ker.Data) == 0 {
		return 1
	}
	return float64(Nnz(ker)) / float64(len(ker.Data))
}

// scratch holds the direct kernels' work buffers, one free list per
// power-of-two capacity, dirty (users write all they read) and never freed:
// a sync.Pool would drop the padded backward buffers at every GC.
var scratch struct {
	sync.Mutex
	free [bits.UintSize][][]float64
}

func getScratch(n int) []float64 {
	c := bits.Len(uint(n - 1))
	scratch.Lock()
	defer scratch.Unlock()
	if free := scratch.free[c]; len(free) > 0 {
		scratch.free[c] = free[:len(free)-1]
		return free[len(free)-1][:n]
	}
	return make([]float64, n, 1<<c)
}

func putScratch(b []float64) {
	c := bits.Len(uint(cap(b) - 1))
	scratch.Lock()
	scratch.free[c] = append(scratch.free[c], b)
	scratch.Unlock()
}

// padInto writes the box of shape ds into dst: src (shape ss) at offset h,
// zeros everywhere else.
func padInto(dst []float64, ds tensor.Shape, src []float64, ss, h tensor.Shape) {
	for z := 0; z < ds.Z; z++ {
		for y := 0; y < ds.Y; y++ {
			row := dst[ds.Index(0, y, z):][:ds.X]
			sy, sz := y-h.Y, z-h.Z
			if sy < 0 || sy >= ss.Y || sz < 0 || sz >= ss.Z {
				clear(row)
				continue
			}
			clear(row[:h.X])
			copy(row[h.X:], src[ss.Index(0, sy, sz):][:ss.X])
			clear(row[h.X+ss.X:])
		}
	}
}

// ValidDirect computes the valid sparse convolution of img with ker
// directly in the spatial domain. The output shape is n − s(k−1) per axis;
// it panics if the kernel (dilated) does not fit in the image.
func ValidDirect(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	return NewTransformer(img.S, ker.S, sp, Direct, false, nil).Forward(img, ker, nil)
}

// FullDirect computes the full sparse convolution of img with ker: every
// output voxel for which the (dilated) sliding window overlaps the image.
// The output shape is n + s(k−1) per axis.
func FullDirect(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, ker, sp)
	tr := NewTransformer(img.S.FullConv(ker.S, sp), ker.S, sp, Direct, false, nil)
	return tr.Backward(img, ker.Reflect(), nil)
}

// Term is one edge of a node-level direct sum: the edge's transformer, its
// operand image and its kernel. For SumForward the operand is the edge's
// source image; for SumBackward it is the edge's target backward image
// zero-padded by the edge's Halo (PadCache.Get).
type Term struct {
	Tr       *Transformer
	Img, Ker *tensor.Tensor
}

// SumForward sets output planes [z0, z1) of out to Σ valid(Img, Ker) over
// terms whose images share one shape: a node's direct in-edges.
func SumForward(out *tensor.Tensor, z0, z1 int, terms []Term) { sumPlanes(out, z0, z1, terms, false) }

// SumBackward sets planes [z0, z1) of out to Σ full(bwd, reflect(Ker)) over
// terms whose padded images share one shape: a node's direct out-edges.
func SumBackward(out *tensor.Tensor, z0, z1 int, terms []Term) { sumPlanes(out, z0, z1, terms, true) }

// gatherSet is sumPlanes' tap table: every tap of every term in order, its
// weight, its image from the tap's offset on, and its run in one plane.
type gatherSet struct {
	w         []float64
	src, runs [][]float64
}

var gatherSets = sync.Pool{New: func() any { return new(gatherSet) }}

// sumPlanes is the one direct kernel: a valid gather over the terms' images
// (already padded when refl, with the reflected taps). Each output plane is
// one run at the images' row stride in scratch — every voxel one FMA chain
// over all taps of all terms — whose rows are then copied into out.
func sumPlanes(out *tensor.Tensor, z0, z1 int, terms []Term, refl bool) {
	is, os := terms[0].Img.S, out.S
	if z0 < 0 || z1 > os.Z || z0 > z1 {
		panic(fmt.Sprintf("conv: planes [%d, %d) of %v", z0, z1, os))
	}
	gs := gatherSets.Get().(*gatherSet)
	gs.w, gs.src = gs.w[:0], gs.src[:0]
	for _, tm := range terms {
		if tm.Img.S != is || tm.Ker.S != tm.Tr.k || is.ValidConv(tm.Ker.S, tm.Tr.sp) != os {
			panic(fmt.Sprintf("conv: direct sum term image %v kernel %v sparsity %v, output %v over images %v",
				tm.Img.S, tm.Ker.S, tm.Tr.sp, os, is))
		}
		tl := newTapList(tm.Ker, refl)
		gs.w = append(gs.w, tl.w...)
		for _, off := range tl.bind(is, tm.Tr.sp) {
			gs.src = append(gs.src, tm.Img.Data[off:])
		}
		if z0 == 0 { // once per sum, in the paper's n′·k³ units for both passes; zero taps skipped
			tm.Tr.cnt.addDirect(int64(tm.Tr.out.Volume() * tl.Len()))
		}
		tapLists.Put(tl)
	}
	n := (os.Y-1)*is.X + os.X
	gs.runs = slices.Grow(gs.runs[:0], len(gs.src))[:len(gs.src)]
	plane := getScratch(n)
	for z := z0; z < z1; z++ {
		base := is.Index(0, 0, z)
		for t, s := range gs.src {
			gs.runs[t] = s[base:][:n]
		}
		gather(plane, gs.runs, gs.w)
		for y := 0; y < os.Y; y++ {
			copy(out.Data[os.Index(0, y, z):][:os.X], plane[y*is.X:])
		}
	}
	putScratch(plane)
	clear(gs.src)
	clear(gs.runs)
	gatherSets.Put(gs)
}

// PadCache holds one node's backward image zero-padded once per halo, in
// pooled scratch, for every direct in-edge that reads it: the spatial
// counterpart of the node's SpectrumCache. Reset points it at an image;
// Get pads on first use; Release returns the buffers once no task can
// still read them.
type PadCache struct {
	mu   sync.Mutex
	img  *tensor.Tensor
	pads []*tensor.Tensor
}

// Reset releases the padded images and points the cache at img; it must
// not race with Get.
func (pc *PadCache) Reset(img *tensor.Tensor) {
	pc.Release()
	pc.img = img
}

// Get returns the cached image zero-padded by h on every side, padding it
// on first use. The buffer is shared; treat it as immutable.
func (pc *PadCache) Get(h tensor.Shape) *tensor.Tensor {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ps := pc.img.S.Add(h).Add(h)
	for _, p := range pc.pads {
		if p.S == ps {
			return p
		}
	}
	p := &tensor.Tensor{S: ps, Data: getScratch(ps.Volume())}
	padInto(p.Data, ps, pc.img.Data, pc.img.S, h)
	pc.pads = append(pc.pads, p)
	return p
}

// Release returns every padded image to the scratch pool.
func (pc *PadCache) Release() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, p := range pc.pads {
		putScratch(p.Data)
	}
	pc.pads = pc.pads[:0]
}

// KernelGradDirect computes the gradient of the loss with respect to the
// kernel of a valid sparse convolution: given the forward input image
// (shape n) and the backward image at the edge's output (shape n−s(k−1)),
// it returns a tensor of the kernel's shape kshape. Each kernel tap's
// gradient is the inner product of the backward image with the
// correspondingly shifted forward image.
func KernelGradDirect(img, bwd *tensor.Tensor, kshape tensor.Shape, sp tensor.Sparsity) *tensor.Tensor {
	checkConvArgs(img, bwd, sp)
	want := img.S.ValidConv(kshape, sp)
	if bwd.S != want {
		panic(fmt.Sprintf("conv: backward image %v, want %v for image %v kernel %v sparsity %v",
			bwd.S, want, img.S, kshape, sp))
	}
	g := tensor.New(kshape)
	is, bs := img.S, bwd.S
	// Every tap: a zero coefficient still receives a gradient.
	all := tapLists.Get().(*TapList)
	all.ks, all.at = kshape, all.at[:0]
	for a := range g.Data {
		all.at = append(all.at, a)
	}
	offs := all.bind(is, sp)
	// A backward plane at the image's row stride, gaps zeroed; the dots.
	ws, bp := tensor.S3(is.X, bs.Y, 1), tensor.S3(bs.X, bs.Y, 1)
	buf := getScratch(ws.Volume() + len(offs))
	run, part := buf[:(bs.Y-1)*is.X+bs.X], buf[ws.Volume():]
	for z := 0; z < bs.Z; z++ {
		padInto(buf, ws, bwd.Data[bs.Index(0, 0, z):], bp, tensor.Shape{})
		dotTaps(part, run, img.Data[is.Index(0, 0, z):], offs)
		for j, p := range part {
			g.Data[j] += p
		}
	}
	putScratch(buf)
	tapLists.Put(all)
	return g
}

// NaiveValid is an intentionally simple reference implementation used only
// by tests: a literal transcription of the defining sum.
func NaiveValid(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	os := img.S.ValidConv(ker.S, sp)
	out := tensor.New(os)
	ks := ker.S
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				var acc float64
				for c := 0; c < ks.Z; c++ {
					for b := 0; b < ks.Y; b++ {
						for a := 0; a < ks.X; a++ {
							acc += img.At(
								x+sp.X*(ks.X-1-a),
								y+sp.Y*(ks.Y-1-b),
								z+sp.Z*(ks.Z-1-c)) * ker.At(a, b, c)
						}
					}
				}
				out.Set(x, y, z, acc)
			}
		}
	}
	return out
}

// NaiveFull is the reference full convolution used only by tests.
func NaiveFull(img, ker *tensor.Tensor, sp tensor.Sparsity) *tensor.Tensor {
	os := img.S.FullConv(ker.S, sp)
	out := tensor.New(os)
	is, ks := img.S, ker.S
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				var acc float64
				for c := 0; c < ks.Z; c++ {
					for b := 0; b < ks.Y; b++ {
						for a := 0; a < ks.X; a++ {
							ix := x - sp.X*a
							iy := y - sp.Y*b
							iz := z - sp.Z*c
							if ix >= 0 && ix < is.X && iy >= 0 && iy < is.Y && iz >= 0 && iz < is.Z {
								acc += img.At(ix, iy, iz) * ker.At(a, b, c)
							}
						}
					}
				}
				out.Set(x, y, z, acc)
			}
		}
	}
	return out
}
