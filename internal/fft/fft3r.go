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
// store, crop, and 1/N normalization.
//
// Both directions are pruned (ZNNi's pruned FFTs): the forward X and Y
// passes run only on the source's rows and z-slabs, since the padding is
// zero and transforms to zero; the inverse Y and X passes run only on the
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

	tilePool sync.Pool  // *[]C, lineBlock·max(Y,Z)
	linePool sync.Pool  // *[]R of length X, r2c/c2r line scratch
	lanePool *sync.Pool // *laneTile for the lane-batched passes (complex64 only)
}

// Plan3R is the double-precision packed real-transform plan.
type Plan3R = Plan3ROf[float64, complex128]

// plan3RKey identifies a cached packed 3D plan by shape and both element
// types (see planRKey).
type plan3RKey struct {
	s        tensor.Shape
	r32, c32 bool
}

var (
	plan3RMu    sync.Mutex
	plan3RCache = map[plan3RKey]any{} // *Plan3ROf[R, C]
)

// NewPlan3R returns a (cached) float64 packed real-transform plan for the
// given logical shape.
func NewPlan3R(s tensor.Shape) *Plan3R { return NewPlan3ROf[float64, complex128](s) }

// NewPlan3ROf returns a (cached) packed real-transform plan for the given
// logical shape at the given precision.
func NewPlan3ROf[R tensor.Real, C Complex](s tensor.Shape) *Plan3ROf[R, C] {
	if !s.Valid() {
		panic(fmt.Sprintf("fft: invalid 3D shape %v", s))
	}
	key := plan3RKey{s, isR32[R](), is32[C]()}
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
	m := lineBlock * max(s.Y, s.Z)
	p.tilePool.New = func() any {
		b := make([]C, m)
		return &b
	}
	p.linePool.New = func() any {
		b := make([]R, s.X)
		return &b
	}
	if is32[C]() {
		// The X pass needs planes of X/2+1 elements (packed row length),
		// the Y/Z passes of Y and Z.
		e := max(s.Y, s.Z, s.X/2+1)
		p.lanePool = &sync.Pool{New: func() any { return newLaneTile(e) }}
	}
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

// forwardRows is the shared forward body: it validates the geometry, zeroes
// the packed rows outside the source's Y/Z extent (rows inside are fully
// written by the r2c transform, so a whole-buffer memset would be redundant
// bandwidth on the hot path), and runs the fused load+X-pass — loadRow
// fills line[:ts.X] for the (y, z) row; the padding tail of the line is
// zeroed once up front — followed by the batched Y/Z passes.
func (p *Plan3ROf[R, C]) forwardRows(packed []C, ts tensor.Shape, loadRow func(line []R, y, z int)) {
	if len(packed) != p.ps.Volume() {
		panic(fmt.Sprintf("fft: packed buffer length %d does not match shape %v (want %d)",
			len(packed), p.s, p.ps.Volume()))
	}
	if !ts.Fits(p.s) {
		panic(fmt.Sprintf("fft: tensor %v does not fit in transform shape %v", ts, p.s))
	}
	xh := p.ps.X
	if ts.Y < p.s.Y {
		for z := 0; z < ts.Z; z++ {
			clear(packed[p.ps.Index(0, ts.Y, z) : (z+1)*p.s.Y*xh])
		}
	}
	if ts.Z < p.s.Z {
		clear(packed[p.ps.Index(0, 0, ts.Z):])
	}
	lp := p.linePool.Get().(*[]R)
	line := *lp
	for i := ts.X; i < p.s.X; i++ {
		line[i] = 0
	}
	if !laneForwardX(p, packed, ts, line, loadRow) {
		for z := 0; z < ts.Z; z++ {
			for y := 0; y < ts.Y; y++ {
				loadRow(line, y, z)
				off := p.ps.Index(0, y, z)
				p.px.Forward(packed[off:off+xh], line)
			}
		}
	}
	p.linePool.Put(lp)
	p.complexPasses(packed, false, 0, ts.Z)
}

// laneXEligible reports whether the r2c/c2r X pass can run lane-batched
// (see lane64.go) and unwraps the concrete half-plan: the packed buffer is
// complex64, the length is above 1, and the lane path is enabled.
func laneXEligible[R tensor.Real, C Complex](p *Plan3ROf[R, C], packed []C) (packed64 []complex64, hp *PlanOf[complex64], wf []complex64, ok bool) {
	if !laneBatch || p.lanePool == nil {
		return nil, nil, nil, false
	}
	packed64, ok = any(packed).([]complex64)
	if !ok {
		return nil, nil, nil, false
	}
	if p.px.half == nil {
		return nil, nil, nil, false
	}
	hp, _ = any(p.px.half).(*PlanOf[complex64])
	wf, _ = any(p.px.wf).([]complex64)
	return packed64, hp, wf, true
}

// laneForwardX is the lane-batched fused load + r2c X pass: 8 rows of one
// z-slab pack into SoA planes (the f64→f32 conversion of ForwardF64 rides
// the pack, as in the per-line path), transform in lockstep through the
// half-length plan, and split into their packed rows with the lane-batched
// combine butterfly. Reports whether it handled the X pass.
func laneForwardX[R tensor.Real, C Complex](p *Plan3ROf[R, C], packed []C, ts tensor.Shape, line []R, loadRow func(line []R, y, z int)) bool {
	packed64, hp, wf, ok := laneXEligible(p, packed)
	if !ok {
		return false
	}
	m := p.px.n / 2
	xh := p.ps.X
	lt := p.lanePool.Get().(*laneTile)
	countVec()
	for z := 0; z < ts.Z; z++ {
		for y0 := 0; y0 < ts.Y; y0 += lanes {
			b := min(lanes, ts.Y-y0)
			for c := 0; c < b; c++ {
				loadRow(line, y0+c, z)
				for j := 0; j < m; j++ {
					lt.srcRe[j*lanes+c] = float32(line[2*j])
					lt.srcIm[j*lanes+c] = float32(line[2*j+1])
				}
			}
			if b < lanes {
				for j := 0; j < m; j++ {
					o := j * lanes
					for c := b; c < lanes; c++ {
						lt.srcRe[o+c], lt.srcIm[o+c] = 0, 0
					}
				}
			}
			recLane64(hp.factors, m, lt.dstRe, lt.dstIm, lt.srcRe, lt.srcIm, m, 1, 0, hp.w)
			// The k = 0 and k = m terms come straight from Z[0]:
			// F[0] = Re+Im, F[m] = Re−Im, both purely real.
			for c := 0; c < lanes; c++ {
				zr, zi := lt.dstRe[c], lt.dstIm[c]
				lt.outRe[c], lt.outIm[c] = zr+zi, 0
				lt.outRe[m*lanes+c], lt.outIm[m*lanes+c] = zr-zi, 0
			}
			r2cLaneCombine(lt.dstRe, lt.dstIm, lt.outRe, lt.outIm, wf, m)
			base := p.ps.Index(0, y0, z)
			for c := 0; c < b; c++ {
				row := packed64[base+c*xh : base+(c+1)*xh]
				for k := range row {
					row[k] = complex(lt.outRe[k*lanes+c], lt.outIm[k*lanes+c])
				}
			}
		}
	}
	p.lanePool.Put(lt)
	return true
}

// Inverse computes the inverse real transform of packed (in place along
// Y/Z, consuming the buffer) and stores the sub-volume of the result
// starting at (ox,oy,oz) into dst, including the 1/N normalization. The
// c2r X-pass runs only for the rows of the crop region.
func (p *Plan3ROf[R, C]) Inverse(dst *tensor.Vol[R], packed []C, ox, oy, oz int) {
	p.inverseRows(dst.S, packed, ox, oy, oz, func(line []R, y, z int) {
		copy(dst.Data[dst.S.Index(0, y, z):dst.S.Index(0, y, z)+dst.S.X], line[ox:ox+dst.S.X])
	})
}

// InverseF64 is Inverse with a float64-tensor boundary: the c2r line
// results convert to float64 inside the cropped row store, sparing the
// reduced-precision pipeline an intermediate float32 volume and the extra
// pass over it.
func (p *Plan3ROf[R, C]) InverseF64(dst *tensor.Tensor, packed []C, ox, oy, oz int) {
	p.inverseRows(dst.S, packed, ox, oy, oz, func(line []R, y, z int) {
		row := dst.Data[dst.S.Index(0, y, z) : dst.S.Index(0, y, z)+dst.S.X]
		for x := range row {
			row[x] = float64(line[ox+x])
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
	if ox < 0 || oy < 0 || oz < 0 || ox+ds.X > p.s.X || oy+ds.Y > p.s.Y || oz+ds.Z > p.s.Z {
		panic(fmt.Sprintf("fft: store region %v at (%d,%d,%d) out of range of %v",
			ds, ox, oy, oz, p.s))
	}
	p.complexPasses(packed, true, oz, oz+ds.Z)
	scale := 1 / float64(p.s.Y*p.s.Z)
	lp := p.linePool.Get().(*[]R)
	line := *lp
	xh := p.ps.X
	if !laneInverseX(p, ds, packed, oy, oz, scale, line, storeRow) {
		for z := 0; z < ds.Z; z++ {
			for y := 0; y < ds.Y; y++ {
				off := p.ps.Index(0, oy+y, oz+z)
				p.px.inverseScaled(line, packed[off:off+xh], scale)
				storeRow(line, y, z)
			}
		}
	}
	p.linePool.Put(lp)
}

// laneInverseX is the lane-batched c2r X pass over the crop region: 8
// packed rows split into SoA planes, run the inverse split pre-pass (the
// 1/N normalization folded into its scale constant, as per-line) and the
// half-length inverse in lockstep, then scatter through storeRow, which
// applies the crop and the float64 conversion of InverseF64. Reports
// whether it handled the X pass.
func laneInverseX[R tensor.Real, C Complex](p *Plan3ROf[R, C], ds tensor.Shape, packed []C, oy, oz int, scale float64, line []R, storeRow func(line []R, y, z int)) bool {
	packed64, hp, wf, ok := laneXEligible(p, packed)
	if !ok {
		return false
	}
	m := p.px.n / 2
	xh := p.ps.X
	cs := float32(0.5 * scale / float64(m))
	lt := p.lanePool.Get().(*laneTile)
	countVec()
	for z := 0; z < ds.Z; z++ {
		for y0 := 0; y0 < ds.Y; y0 += lanes {
			b := min(lanes, ds.Y-y0)
			base := p.ps.Index(0, oy+y0, oz+z)
			// The out planes double as the split source: m+1 elements.
			for c := 0; c < b; c++ {
				row := packed64[base+c*xh : base+(c+1)*xh]
				for k, v := range row {
					lt.outRe[k*lanes+c] = real(v)
					lt.outIm[k*lanes+c] = imag(v)
				}
			}
			if b < lanes {
				for k := 0; k <= m; k++ {
					o := k * lanes
					for c := b; c < lanes; c++ {
						lt.outRe[o+c], lt.outIm[o+c] = 0, 0
					}
				}
			}
			c2rLanePre(lt.srcRe, lt.srcIm, lt.outRe, lt.outIm, wf, m, cs)
			recLane64(hp.factors, m, lt.dstRe, lt.dstIm, lt.srcRe, lt.srcIm, m, 1, 0, hp.winv)
			for c := 0; c < b; c++ {
				for j := 0; j < m; j++ {
					line[2*j] = R(lt.dstRe[j*lanes+c])
					line[2*j+1] = R(lt.dstIm[j*lanes+c])
				}
				storeRow(line, y0+c, z)
			}
		}
	}
	p.lanePool.Put(lt)
	return true
}

// complexPasses runs the batched complex transforms along Y then Z (or Z
// then Y for the inverse) over the packed columns. The Y pass runs only on
// the z-slabs [z0, z1): the source's slabs forward, the crop's inverse (see
// the pruning note on Plan3ROf).
func (p *Plan3ROf[R, C]) complexPasses(packed []C, inverse bool, z0, z1 int) {
	if p.s.Y <= 1 && p.s.Z <= 1 {
		return
	}
	if lanePasses3R(p, packed, inverse, z0, z1) {
		return
	}
	tp := p.tilePool.Get().(*[]C)
	tile := *tp
	xh := p.ps.X
	plane := xh * p.s.Y
	if !inverse {
		if p.s.Y > 1 {
			for z := z0; z < z1; z++ {
				blockLines(p.py, packed, z*plane, xh, xh, p.s.Y, false, tile)
			}
		}
		if p.s.Z > 1 {
			blockLines(p.pz, packed, 0, plane, plane, p.s.Z, false, tile)
		}
	} else {
		if p.s.Z > 1 {
			blockLines(p.pz, packed, 0, plane, plane, p.s.Z, true, tile)
		}
		if p.s.Y > 1 {
			for z := z0; z < z1; z++ {
				blockLines(p.py, packed, z*plane, xh, xh, p.s.Y, true, tile)
			}
		}
	}
	p.tilePool.Put(tp)
}

// lanePasses3R is the lane-batched Y/Z counterpart of complexPasses: the
// same column tiling as blockLines, but with the tile in split-stride SoA
// planes so every butterfly runs 8 columns wide (see lane64.go), and the
// same Y-pass slab range [z0, z1). Requires complex64 coefficients; reports
// whether it handled the passes.
func lanePasses3R[R tensor.Real, C Complex](p *Plan3ROf[R, C], packed []C, inverse bool, z0, z1 int) bool {
	if !laneBatch || p.lanePool == nil {
		return false
	}
	b64, ok := any(packed).([]complex64)
	if !ok {
		return false
	}
	py := any(p.py).(*PlanOf[complex64])
	pz := any(p.pz).(*PlanOf[complex64])
	lt := p.lanePool.Get().(*laneTile)
	xh := p.ps.X
	plane := xh * p.s.Y
	if !inverse {
		if p.s.Y > 1 {
			for z := z0; z < z1; z++ {
				blockLanes64(py, b64, z*plane, xh, xh, p.s.Y, false, lt)
			}
		}
		if p.s.Z > 1 {
			blockLanes64(pz, b64, 0, plane, plane, p.s.Z, false, lt)
		}
	} else {
		if p.s.Z > 1 {
			blockLanes64(pz, b64, 0, plane, plane, p.s.Z, true, lt)
		}
		if p.s.Y > 1 {
			for z := z0; z < z1; z++ {
				blockLanes64(py, b64, z*plane, xh, xh, p.s.Y, true, lt)
			}
		}
	}
	p.lanePool.Put(lt)
	return true
}
