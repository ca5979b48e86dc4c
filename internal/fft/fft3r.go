package fft

import (
	"fmt"
	"sync"

	"znn/internal/tensor"
)

// PackedShape returns the shape of the Hermitian-packed spectrum of a real
// 3D transform of shape s: (X/2+1, Y, Z), x fastest. Packing keeps the
// non-negative x-frequencies only; the rest follow from
// F[kx,ky,kz] = conj(F[(X−kx)%X, (Y−ky)%Y, (Z−kz)%Z]).
func PackedShape(s tensor.Shape) tensor.Shape {
	return tensor.Shape{X: s.X/2 + 1, Y: s.Y, Z: s.Z}
}

// PackedVolume returns the number of complex coefficients in the packed
// spectrum of a real transform of shape s: (X/2+1)·Y·Z.
func PackedVolume(s tensor.Shape) int { return PackedShape(s).Volume() }

// Plan3ROf performs separable 3D real-to-complex forward and
// complex-to-real inverse transforms with Hermitian-packed spectra, generic
// over the precision pair (R, C). The packed buffer is laid out like a
// tensor of shape PackedShape(s): coefficient (kx,ky,kz) with kx ≤ X/2
// lives at linear index (kz·Y + ky)·(X/2+1) + kx.
//
// The forward pass fuses the zero-padded load of the real tensor with the
// r2c X-pass (each real row transforms straight into its packed row), then
// runs batched complex transforms along Y and Z over the X/2+1 packed
// columns — roughly half the work and half the memory of a full complex
// transform. The inverse pass runs the complex Z/Y passes, then applies the
// c2r X-pass only to the rows of the requested crop region, fusing the
// store, crop, and 1/N normalization. The crop is circular: a region that
// runs past the plan's end continues at its start.
//
// Both directions are pruned (ZNNi's pruned FFTs): the forward X and Y
// passes run only on the source's rows and z-slabs, and the Y and Z
// gathers read the padding as zeros instead of loading it, so nothing
// clears the buffer first; the inverse Y and X passes run only on the
// crop's z-slabs and rows, since nothing else is read. The Z pass runs over
// every packed column. The pruning is exact: outputs match the unpruned
// transform bit for bit.
//
// A Plan3ROf is safe for concurrent use.
type Plan3ROf[R tensor.Real, C Complex] struct {
	s      tensor.Shape // logical real shape
	ps     tensor.Shape // packed spectrum shape (X/2+1, Y, Z)
	px     *PlanROf[R, C]
	py, pz *PlanOf[C]

	linePool sync.Pool // *[]R of length X, r2c/c2r line scratch
	lanePool sync.Pool // *laneTile[R] of the X pass and the lane-batched Y/Z passes
}

// Plan3R is the double-precision packed real-transform plan.
type Plan3R = Plan3ROf[float64, complex128]

// plan3RKey identifies a cached packed 3D plan by shape and precision.
type plan3RKey struct {
	s   tensor.Shape
	f32 bool
}

var (
	plan3RMu    sync.Mutex
	plan3RCache = map[plan3RKey]any{} // *Plan3ROf[R, C]
)

// NewPlan3R returns a (cached) float64 packed real-transform plan for the
// given logical shape.
func NewPlan3R(s tensor.Shape) *Plan3R { return NewPlan3ROf[float64, complex128](s) }

// NewPlan3ROf returns a (cached) packed real-transform plan for the given
// logical shape at the given precision. Like NewPlanROf it panics when R
// and C differ in precision.
func NewPlan3ROf[R tensor.Real, C Complex](s tensor.Shape) *Plan3ROf[R, C] {
	if !s.Valid() {
		panic(fmt.Sprintf("fft: invalid 3D shape %v", s))
	}
	key := plan3RKey{s, is32[C]()}
	plan3RMu.Lock()
	defer plan3RMu.Unlock()
	if p, ok := plan3RCache[key]; ok {
		return p.(*Plan3ROf[R, C])
	}
	p := &Plan3ROf[R, C]{
		s:  s,
		ps: PackedShape(s),
		px: NewPlanROf[R, C](s.X),
		py: NewPlanOf[C](s.Y),
		pz: NewPlanOf[C](s.Z),
	}
	p.linePool.New = func() any {
		b := make([]R, s.X)
		return &b
	}
	// The X pass needs planes of X/2+1 elements (packed row length), the
	// Y/Z passes of Y and Z.
	e := max(s.Y, s.Z, s.X/2+1)
	p.lanePool.New = func() any { return newLaneTile[R](e, lanes) }
	plan3RCache[key] = p
	return p
}

// Shape returns the logical real transform shape.
func (p *Plan3ROf[R, C]) Shape() tensor.Shape { return p.s }

// PackedLen returns the packed spectrum length (X/2+1)·Y·Z.
func (p *Plan3ROf[R, C]) PackedLen() int { return p.ps.Volume() }

// Forward computes the packed spectrum of t zero-padded to the plan shape,
// writing it into packed (length PackedLen). It panics if t does not fit.
func (p *Plan3ROf[R, C]) Forward(packed []C, t *tensor.Vol[R]) {
	p.forwardRows(packed, t.S, func(line []R, y, z int) {
		copy(line[:t.S.X], t.Data[t.S.Index(0, y, z):t.S.Index(0, y, z)+t.S.X])
	})
}

// ForwardF64 is Forward with a float64-tensor boundary: each row of t
// converts to R inside the line copy the X-pass performs anyway, so the
// reduced-precision pipeline transforms float64 images without
// materializing a converted copy (the conversion rides the pass for free).
func (p *Plan3ROf[R, C]) ForwardF64(packed []C, t *tensor.Tensor) {
	p.forwardRows(packed, t.S, func(line []R, y, z int) {
		row := t.Data[t.S.Index(0, y, z) : t.S.Index(0, y, z)+t.S.X]
		for x, v := range row {
			line[x] = R(v)
		}
	})
}

// forwardRows is the shared forward body: it validates the geometry and
// runs the fused load+X-pass — loadRow fills line[:ts.X] for the (y, z)
// row; the padding tail of the line is zeroed once up front — followed by
// the batched Y/Z passes, whose gathers stand in zeros for the packed rows
// outside the source's Y/Z extent, which nothing has written.
func (p *Plan3ROf[R, C]) forwardRows(packed []C, ts tensor.Shape, loadRow func(line []R, y, z int)) {
	if len(packed) != p.ps.Volume() {
		panic(fmt.Sprintf("fft: packed buffer length %d does not match shape %v (want %d)",
			len(packed), p.s, p.ps.Volume()))
	}
	if !ts.Fits(p.s) {
		panic(fmt.Sprintf("fft: tensor %v does not fit in transform shape %v", ts, p.s))
	}
	lp := p.linePool.Get().(*[]R)
	line := *lp
	for i := ts.X; i < p.s.X; i++ {
		line[i] = 0
	}
	p.forwardX(packed, ts, line, loadRow)
	p.linePool.Put(lp)
	p.complexPasses(packed, false, 0, ts)
}

// forwardX is the fused load + r2c X pass: 8 rows of one z-slab pack into
// SoA planes in the half plan's leaf order (the f64→f32 conversion of
// ForwardF64 rides the pack), transform in lockstep through the
// half-length plan, and split into their packed rows (PlanROf.r2c). An X
// extent of 1 is its own spectrum.
func (p *Plan3ROf[R, C]) forwardX(packed []C, ts tensor.Shape, line []R, loadRow func(line []R, y, z int)) {
	xh := p.ps.X
	if p.px.half == nil {
		for z := 0; z < ts.Z; z++ {
			for y := 0; y < ts.Y; y++ {
				loadRow(line, y, z)
				packed[p.ps.Index(0, y, z)] = cmplxOf[C](float64(line[0]), 0)
			}
		}
		return
	}
	k := kernelsFor[R](true)
	nl, m := k.nl, p.px.n/2
	pk, perm := pairs[R](packed), p.px.half.perm
	lt := p.lanePool.Get().(*laneTile[R])
	countVec()
	for z := 0; z < ts.Z; z++ {
		for y0 := 0; y0 < ts.Y; y0 += nl {
			cols := min(nl, ts.Y-y0)
			for c := 0; c < cols; c++ {
				loadRow(line, y0+c, z)
				for q, j := range perm {
					lt.dstRe[q*nl+c], lt.dstIm[q*nl+c] = line[2*j], line[2*j+1]
				}
			}
			for q := 0; cols < nl && q < m; q++ {
				clear(lt.dstRe[q*nl+cols : (q+1)*nl])
				clear(lt.dstIm[q*nl+cols : (q+1)*nl])
			}
			p.px.r2c(k, lt)
			scatterLanes(pk, lt.outRe, lt.outIm, nl, p.ps.Index(0, y0, z), xh, 1, xh, cols)
		}
	}
	p.lanePool.Put(lt)
}

// Inverse computes the inverse real transform of packed (in place along
// Y/Z, consuming the buffer) and stores the sub-volume of the result
// starting at (ox,oy,oz) into dst, including the 1/N normalization. The
// sub-volume is read circularly: each offset lies inside the plan shape,
// dst is no larger than it, and a row, column or slab that runs past the
// plan's end continues at index 0. The c2r X-pass runs only for the rows
// of the crop region.
func (p *Plan3ROf[R, C]) Inverse(dst *tensor.Vol[R], packed []C, ox, oy, oz int) {
	p.inverseRows(dst.S, packed, ox, oy, oz, func(line []R, y, z int) {
		row := dst.Data[dst.S.Index(0, y, z) : dst.S.Index(0, y, z)+dst.S.X]
		n := copy(row, line[ox:])
		copy(row[n:], line) // the wrapped part, if any
	})
}

// InverseF64 is Inverse with a float64-tensor boundary: the c2r line
// results convert to float64 inside the cropped row store, sparing the
// reduced-precision pipeline an intermediate float32 volume and the extra
// pass over it.
func (p *Plan3ROf[R, C]) InverseF64(dst *tensor.Tensor, packed []C, ox, oy, oz int) {
	p.inverseRows(dst.S, packed, ox, oy, oz, func(line []R, y, z int) {
		row := dst.Data[dst.S.Index(0, y, z) : dst.S.Index(0, y, z)+dst.S.X]
		n := min(len(row), len(line)-ox)
		for x, v := range line[ox : ox+n] {
			row[x] = float64(v)
		}
		for x, v := range line[:len(row)-n] { // the wrapped part, if any
			row[n+x] = float64(v)
		}
	})
}

// inverseRows is the shared inverse body: Y/Z passes, then the c2r X-pass
// over the cropped rows only — storeRow consumes the reconstructed line for
// the (y, z) row of the crop region. The unapplied 1/(Y·Z) of the unscaled
// Y/Z passes folds into the per-line butterfly (PlanR's own 1/X is internal
// to inverseScaled).
func (p *Plan3ROf[R, C]) inverseRows(ds tensor.Shape, packed []C, ox, oy, oz int, storeRow func(line []R, y, z int)) {
	if len(packed) != p.ps.Volume() {
		panic(fmt.Sprintf("fft: packed buffer length %d does not match shape %v (want %d)",
			len(packed), p.s, p.ps.Volume()))
	}
	if ox < 0 || oy < 0 || oz < 0 || ox >= p.s.X || oy >= p.s.Y || oz >= p.s.Z || !ds.Fits(p.s) {
		panic(fmt.Sprintf("fft: store region %v at (%d,%d,%d) out of range of %v",
			ds, ox, oy, oz, p.s))
	}
	p.complexPasses(packed, true, oz, ds)
	lp := p.linePool.Get().(*[]R)
	p.inverseX(ds, packed, oy, oz, 1/float64(p.s.Y*p.s.Z), *lp, storeRow)
	p.linePool.Put(lp)
}

// inverseX is the c2r X pass over the crop region: 8 packed rows split
// into SoA planes, run the inverse split pre-pass (the 1/N normalization
// folded into its scale constant) and the half-length inverse in lockstep
// (PlanROf.c2r), then go out through storeRow, which applies the crop and
// the float64 conversion of InverseF64. Crop rows and slabs wrap at the
// plan's end; a block of rows stops at the Y wrap, so it stays one run of
// adjacent packed rows.
func (p *Plan3ROf[R, C]) inverseX(ds tensor.Shape, packed []C, oy, oz int, scale float64, line []R, storeRow func(line []R, y, z int)) {
	xh := p.ps.X
	if p.px.half == nil {
		for z := 0; z < ds.Z; z++ {
			for y := 0; y < ds.Y; y++ {
				line[0] = R(real(complex128(packed[p.ps.Index(0, (oy+y)%p.s.Y, (oz+z)%p.s.Z)])) * scale)
				storeRow(line, y, z)
			}
		}
		return
	}
	k := kernelsFor[R](true)
	nl, m := k.nl, p.px.n/2
	pk := pairs[R](packed)
	lt := p.lanePool.Get().(*laneTile[R])
	countVec()
	for z := 0; z < ds.Z; z++ {
		pz := (oz + z) % p.s.Z
		for y0, cols := 0, 0; y0 < ds.Y; y0 += cols {
			py := (oy + y0) % p.s.Y
			cols = min(nl, ds.Y-y0, p.s.Y-py)
			gatherLanes(lt.outRe, lt.outIm, pk, nil, nl, p.ps.Index(0, py, pz), xh, 1, xh, cols, xh)
			p.px.c2r(k, lt, scale)
			for c := 0; c < cols; c++ {
				for j := 0; j < m; j++ {
					line[2*j], line[2*j+1] = lt.dstRe[j*nl+c], lt.dstIm[j*nl+c]
				}
				storeRow(line, y0+c, z)
			}
		}
	}
	p.lanePool.Put(lt)
}

// complexPasses runs the lane-batched complex transforms along Y then Z
// (or Z then Y for the inverse) over the packed columns (blockLanes). The
// Y pass runs only on the ext.Z z-slabs from oz on, wrapping at the plan's
// end: the source's slabs forward, the crop's inverse (see the pruning note
// on Plan3ROf). Forward, ext is the source's extent and the gathers read
// the rows and slabs past it as zeros.
func (p *Plan3ROf[R, C]) complexPasses(packed []C, inverse bool, oz int, ext tensor.Shape) {
	if p.s.Y <= 1 && p.s.Z <= 1 {
		return
	}
	k := kernelsFor[R](true)
	lt := p.lanePool.Get().(*laneTile[R])
	xh := p.ps.X
	plane := xh * p.s.Y
	ylim, zlim := ext.Y, ext.Z
	if inverse {
		ylim, zlim = p.s.Y, p.s.Z
	}
	if inverse && p.s.Z > 1 {
		blockLanes(k, p.pz, packed, 0, plane, plane, zlim, true, lt)
	}
	for i := 0; p.s.Y > 1 && i < ext.Z; i++ {
		blockLanes(k, p.py, packed, (oz+i)%p.s.Z*plane, xh, xh, ylim, inverse, lt)
	}
	if !inverse && p.s.Z > 1 {
		blockLanes(k, p.pz, packed, 0, plane, plane, zlim, false, lt)
	}
	p.lanePool.Put(lt)
}
