package fft

import (
	"unsafe"

	"znn/internal/tensor"
)

// This file holds the package's one FFT recursion, laneDFT, for both
// precisions. It is lane-batched: nl independent lines run through every
// butterfly in lockstep, stored SoA-style as two planes of the line's float
// type (one for real parts, one for imaginary parts) with element j of lane
// c at plane index j·nl+c. Each butterfly then becomes straight-line
// arithmetic over nl contiguous floats with a broadcast twiddle and no
// cross-lane dependencies. At nl = lanes = 8 that is one 256-bit AVX2
// register per operation for float32 and two for float64, the shape the
// hand assembly in kernels_amd64.s implements, in both precisions, for
// every radix the plans produce (2, 3, 4 and 5) and for the r2c/c2r split
// passes. The Go kernels below (goLanes) are the portable twins of those
// bodies at any nl; at nl = 1 they are the single-line transforms of PlanOf
// and PlanROf.
//
// In the 3D passes one gather transposes 8 adjacent strided columns into
// the tile, splits the interleaved complex values into the two planes and
// puts the elements in the order laneDFT wants, in one pass; eight complex
// values span one or two whole cache lines, so a pass over the volume
// touches each cache line O(1) times instead of once per column. The
// gather and its inverse, the scatter, are lane kernels too: the AVX2 set
// moves a full block of 8 columns with 128-bit loads and in-lane shuffles.
//
// Twiddle tables and coefficient buffers reach the kernels as (real,
// imaginary) pairs of the float type (pairs), which is the memory layout
// of complex64 and complex128.

// lanes is the number of independent lines a lane-batched butterfly
// processes in lockstep: 8 float32 values fill one 256-bit AVX2 register,
// 8 float64 values two.
const lanes = 8

// laneKernels is one precision's set of lane kernels at lane count nl. The
// butterflies combine the radix sub-transforms of laneDFT in place (r is
// the radix; nr+i·ni and the like are the radix's root-of-unity constants);
// combine and pre are the r2c split butterfly and the c2r pre-pass of
// PlanROf; gather and scatter move cols ≤ nl adjacent columns between the
// coefficients b (column c's element j at b[c + j·es]) and the planes
// (gatherLanes, scatterLanes).
type laneKernels[F tensor.Real] struct {
	nl      int
	r2      func(dre, dim []F, m int, w [][2]F, step int)
	r3      func(dre, dim []F, m int, w [][2]F, step int, wr, wi F)
	r4      func(dre, dim []F, m, pn int, w [][2]F, step int, nr, ni F)
	r5      func(dre, dim []F, m int, w [][2]F, step int, r1, i1, r2, i2 F)
	combine func(zre, zim, outre, outim []F, wf [][2]F, m int)
	pre     func(zre, zim, sre, sim []F, wf [][2]F, m int, cs F)
	gather  func(sre, sim []F, b [][2]F, perm []int, es, n, cols, lim int)
	scatter func(b [][2]F, dre, dim []F, es, n, cols int)
}

// portable returns the Go kernel set at lane count nl.
func portable[F tensor.Real](nl int) *laneKernels[F] {
	g := goLanes[F](nl)
	return &laneKernels[F]{nl, g.r2, g.r3, g.r4, g.r5, g.combine, g.pre, g.gather, g.scatter}
}

// pairs views a coefficient slice as its (real, imaginary) pairs, the
// layout the kernels read twiddles in and the gathers read buffers in. F
// must be C's component type.
func pairs[F tensor.Real, C Complex](c []C) [][2]F {
	if unsafe.Sizeof(c[0]) != unsafe.Sizeof([2]F{}) {
		panic("fft: float and complex types of different precision")
	}
	return unsafe.Slice((*[2]F)(unsafe.Pointer(unsafe.SliceData(c))), len(c))
}

// laneTile is the per-transform scratch of the lane-batched passes: six
// planes of capacity n·nl each. laneDFT transforms the dst pair in place;
// the out pair holds packed rows, one element longer than the half-length
// transform (the r2c output, the c2r input); the src pair holds the c2r
// pre-pass output before it is put in leaf order. A tile serves any lane
// count up to its nl.
type laneTile[F tensor.Real] struct {
	srcRe, srcIm []F
	dstRe, dstIm []F
	outRe, outIm []F
}

func newLaneTile[F tensor.Real](n, nl int) *laneTile[F] {
	buf := make([]F, 6*n*nl)
	p := func() []F {
		s := buf[:n*nl]
		buf = buf[n*nl:]
		return s
	}
	return &laneTile[F]{p(), p(), p(), p(), p(), p()}
}

// newTile returns a laneTile in C's component type, as any.
func newTile[C Complex](n, nl int) any {
	if is32[C]() {
		return newLaneTile[float32](n, nl)
	}
	return newLaneTile[float64](n, nl)
}

// laneDFT computes in place the DFT of k.nl independent lines of pl's
// length whose elements the planes hold in leaf order (pl.perm; see the
// gathers). It is the mixed-radix Cooley-Tukey recursion over pl.factors
// unrolled bottom-up: the recursion's leaves are the permuted input, and
// each level's butterflies combine the blocks of the level below in place,
// the deepest level first.
//
// A radix-r level of block size s = r·m twiddles leg j of a block by
// w[j·k·step] with k < m and step = n/s, so j·k·step < n and the index
// needs no reduction. The ω_r constants come from the same table (w[n/r],
// w[2·n/r]), so the inverse butterflies follow from the inverse table with
// no sign logic.
func laneDFT[F tensor.Real, C Complex](k *laneKernels[F], pl *PlanOf[C], inverse bool, re, im []F) {
	nl, n, w := k.nl, pl.n, pairs[F](pl.table(inverse))
	size := 1
	for i := len(pl.factors) - 1; i >= 0; i-- {
		radix, m := pl.factors[i], size
		size *= radix
		step := n / size
		t1, t2 := w[n/radix], w[2*n/radix%n] // ω_r, ω_r² (ω₄ = ∓i)
		for b := 0; b < n*nl; b += size * nl {
			bre, bim := re[b:b+size*nl], im[b:b+size*nl]
			switch radix {
			case 2:
				k.r2(bre, bim, m, w, step)
			case 3:
				k.r3(bre, bim, m, w, step, t1[0], t1[1])
			case 4:
				k.r4(bre, bim, m, n, w, step, t1[0], t1[1])
			case 5:
				k.r5(bre, bim, m, w, step, t1[0], t1[1], t2[0], t2[1])
			}
		}
	}
}

// leafOrder returns the input order of the recursion's leaves over the
// given factors: splitting by the first radix r places sub-transform j,
// the DFT of elements j, j+r, j+2r, …, in the j-th block, so leaf p of
// block j is input element j + r·(leaf p of the sub-transform).
func leafOrder(factors []int) []int {
	if len(factors) == 0 {
		return []int{0}
	}
	r, sub := factors[0], leafOrder(factors[1:])
	perm := make([]int, 0, r*len(sub))
	for j := 0; j < r; j++ {
		for _, q := range sub {
			perm = append(perm, j+r*q)
		}
	}
	return perm
}

// goLanes is the portable lane kernel set; its value is the lane count nl.
type goLanes[F tensor.Real] int

// r2 is the radix-2 butterfly: (a, b) -> (a + w·b, a − w·b) across all
// lanes of each element pair.
func (g goLanes[F]) r2(dre, dim []F, m int, w [][2]F, step int) {
	nl := int(g)
	for k := 0; k < m; k++ {
		tr, ti := w[k*step][0], w[k*step][1]
		o0, o1 := k*nl, (m+k)*nl
		for c := 0; c < nl; c++ {
			ar, ai := dre[o0+c], dim[o0+c]
			br, bi := dre[o1+c], dim[o1+c]
			xr := br*tr - bi*ti
			xi := br*ti + bi*tr
			dre[o0+c], dim[o0+c] = ar+xr, ai+xi
			dre[o1+c], dim[o1+c] = ar-xr, ai-xi
		}
	}
}

// r4 is the radix-4 butterfly (nr+i·ni is ∓i, the radix-4 quarter
// twiddle); legs c and d read twiddles i2 = 2k·step and i3 = 3k·step,
// tracked incrementally modulo pn.
func (g goLanes[F]) r4(dre, dim []F, m, pn int, w [][2]F, step int, nr, ni F) {
	nl := int(g)
	i2, i3 := 0, 0
	for k := 0; k < m; k++ {
		t1r, t1i := w[k*step][0], w[k*step][1]
		t2r, t2i := w[i2][0], w[i2][1]
		t3r, t3i := w[i3][0], w[i3][1]
		o0, o1, o2, o3 := k*nl, (m+k)*nl, (2*m+k)*nl, (3*m+k)*nl
		for c := 0; c < nl; c++ {
			ar, ai := dre[o0+c], dim[o0+c]
			xr, xi := dre[o1+c], dim[o1+c]
			br := xr*t1r - xi*t1i
			bi := xr*t1i + xi*t1r
			xr, xi = dre[o2+c], dim[o2+c]
			cr := xr*t2r - xi*t2i
			ci := xr*t2i + xi*t2r
			xr, xi = dre[o3+c], dim[o3+c]
			dr := xr*t3r - xi*t3i
			di := xr*t3i + xi*t3r
			apcR, apcI := ar+cr, ai+ci
			amcR, amcI := ar-cr, ai-ci
			bpdR, bpdI := br+dr, bi+di
			bmdR, bmdI := br-dr, bi-di
			jr := bmdR*nr - bmdI*ni
			ji := bmdR*ni + bmdI*nr
			dre[o0+c], dim[o0+c] = apcR+bpdR, apcI+bpdI
			dre[o1+c], dim[o1+c] = amcR+jr, amcI+ji
			dre[o2+c], dim[o2+c] = apcR-bpdR, apcI-bpdI
			dre[o3+c], dim[o3+c] = amcR-jr, amcI-ji
		}
		if i2 += 2 * step; i2 >= pn {
			i2 -= pn
		}
		if i3 += 3 * step; i3 >= pn {
			i3 -= pn
		}
	}
}

// r3 is the radix-3 butterfly (wr+i·wi is ω₃, the third-turn twiddle):
// with s = b+c and d = b−c (b, c twiddled),
// y0 = a+s, y1,2 = a + wr·s ± i·wi·d.
func (g goLanes[F]) r3(dre, dim []F, m int, w [][2]F, step int, wr, wi F) {
	nl := int(g)
	for k := 0; k < m; k++ {
		t1r, t1i := w[k*step][0], w[k*step][1]
		t2r, t2i := w[2*k*step][0], w[2*k*step][1]
		o0, o1, o2 := k*nl, (m+k)*nl, (2*m+k)*nl
		for c := 0; c < nl; c++ {
			ar, ai := dre[o0+c], dim[o0+c]
			xr, xi := dre[o1+c], dim[o1+c]
			br := xr*t1r - xi*t1i
			bi := xr*t1i + xi*t1r
			xr, xi = dre[o2+c], dim[o2+c]
			cr := xr*t2r - xi*t2i
			ci := xr*t2i + xi*t2r
			sr, si := br+cr, bi+ci
			dr, di := br-cr, bi-ci
			tr, ti := ar+wr*sr, ai+wr*si
			ur, ui := -wi*di, wi*dr
			dre[o0+c], dim[o0+c] = ar+sr, ai+si
			dre[o1+c], dim[o1+c] = tr+ur, ti+ui
			dre[o2+c], dim[o2+c] = tr-ur, ti-ui
		}
	}
}

// r5 is the radix-5 butterfly (r1+i·i1 is ω₅, r2+i·i2 is ω₅²). With
// s1,d1 = x1±x4 and s2,d2 = x2±x3 (x_j twiddled):
//
//	y0    = x0 + s1 + s2
//	y1,4  = x0 + r1·s1 + r2·s2 ± i·(i1·d1 + i2·d2)
//	y2,3  = x0 + r2·s1 + r1·s2 ± i·(i2·d1 − i1·d2)
func (g goLanes[F]) r5(dre, dim []F, m int, w [][2]F, step int, r1, i1, r2, i2 F) {
	nl := int(g)
	var xr, xi, tr, ti [5]F
	for k := 0; k < m; k++ {
		for j := 1; j < 5; j++ {
			tr[j], ti[j] = w[j*k*step][0], w[j*k*step][1]
		}
		for c := 0; c < nl; c++ {
			xr[0], xi[0] = dre[k*nl+c], dim[k*nl+c]
			for j := 1; j < 5; j++ {
				o := (j*m+k)*nl + c
				vr, vi := dre[o], dim[o]
				xr[j] = vr*tr[j] - vi*ti[j]
				xi[j] = vr*ti[j] + vi*tr[j]
			}
			s1r, s1i := xr[1]+xr[4], xi[1]+xi[4]
			d1r, d1i := xr[1]-xr[4], xi[1]-xi[4]
			s2r, s2i := xr[2]+xr[3], xi[2]+xi[3]
			d2r, d2i := xr[2]-xr[3], xi[2]-xi[3]
			t1r, t1i := xr[0]+r1*s1r+r2*s2r, xi[0]+r1*s1i+r2*s2i
			u1r, u1i := -(i1*d1i + i2*d2i), i1*d1r+i2*d2r
			t2r, t2i := xr[0]+r2*s1r+r1*s2r, xi[0]+r2*s1i+r1*s2i
			u2r, u2i := -(i2*d1i - i1*d2i), i2*d1r-i1*d2r
			dre[k*nl+c], dim[k*nl+c] = xr[0]+s1r+s2r, xi[0]+s1i+s2i
			dre[(m+k)*nl+c], dim[(m+k)*nl+c] = t1r+u1r, t1i+u1i
			dre[(2*m+k)*nl+c], dim[(2*m+k)*nl+c] = t2r+u2r, t2i+u2i
			dre[(3*m+k)*nl+c], dim[(3*m+k)*nl+c] = t2r-u2r, t2i-u2i
			dre[(4*m+k)*nl+c], dim[(4*m+k)*nl+c] = t1r-u1r, t1i-u1i
		}
	}
}

// combine is the even-length r2c split butterfly over k = 1 .. m−1 (z of
// m elements, out of m+1; the caller fills out[0] and out[m] from z[0]):
//
//	Fe[k] = (Z[k] + conj(Z[m−k]))/2,  Fo[k] = −i·(Z[k] − conj(Z[m−k]))/2
//	F[k]  = Fe[k] + wf[k]·Fo[k].
func (g goLanes[F]) combine(zre, zim, outre, outim []F, wf [][2]F, m int) {
	nl := int(g)
	for k := 1; k < m; k++ {
		tr, ti := wf[k][0], wf[k][1]
		ou, od := k*nl, (m-k)*nl
		for c := 0; c < nl; c++ {
			ar, ai := zre[ou+c], zim[ou+c]
			br, bi := zre[od+c], zim[od+c]
			feR, feI := (ar+br)*0.5, (ai-bi)*0.5
			foR, foI := (ai+bi)*0.5, (br-ar)*0.5
			outre[ou+c] = feR + foR*tr - foI*ti
			outim[ou+c] = feI + foR*ti + foI*tr
		}
	}
}

// pre is the even-length c2r pre-pass over k = 0 .. m−1 (src of m+1
// elements, z of m), with the output scale cs folded in:
//
//	fe = F[k] + conj(F[m−k]),  fo = (F[k] − conj(F[m−k]))·conj(wf[k])
//	Z[k] = (fe + i·fo)·cs.
func (g goLanes[F]) pre(zre, zim, sre, sim []F, wf [][2]F, m int, cs F) {
	nl := int(g)
	for k := 0; k < m; k++ {
		tr, ti := wf[k][0], wf[k][1]
		ou, od := k*nl, (m-k)*nl
		for c := 0; c < nl; c++ {
			ar, ai := sre[ou+c], sim[ou+c]
			br, bi := sre[od+c], sim[od+c]
			feR, feI := ar+br, ai-bi
			dR, dI := ar-br, ai+bi
			foR := dR*tr + dI*ti
			foI := dI*tr - dR*ti
			zre[ou+c] = (feR - foI) * cs
			zim[ou+c] = (feI + foR) * cs
		}
	}
}

// gatherLanes splits cols ≤ nl columns of the coefficients b into the SoA
// planes: element j of column c is coefficient base + c·cs + j·es, with
// either the columns adjacent (cs = 1: the Y/Z passes) or each column
// contiguous (es = 1: packed X rows, single lines); the inner loop runs
// along the adjacent one. Plane row p takes element perm[p] (the leaf
// order of laneDFT), or element p when perm is nil. Elements j ≥ lim are
// zero-filled without being read: the pruned forward pass's padding,
// which nothing has written. Unused lanes (c ≥ cols, the tail block of a
// pass) are zero-filled so the butterflies run on defined values; their
// results are discarded by the scatter.
func gatherLanes[F tensor.Real](sre, sim []F, b [][2]F, perm []int, nl, base, cs, es, n, cols, lim int) {
	for c := cols; c < nl; c++ {
		for p := 0; p < n; p++ {
			sre[p*nl+c], sim[p*nl+c] = 0, 0
		}
	}
	for p := 0; p < n; p++ {
		j := p
		if perm != nil {
			j = perm[p]
		}
		dr, di := sre[p*nl:p*nl+cols], sim[p*nl:p*nl+cols]
		if j >= lim {
			clear(dr)
			clear(di)
			continue
		}
		if cs == 1 {
			for c, v := range b[base+j*es : base+j*es+cols] {
				dr[c], di[c] = v[0], v[1]
			}
			continue
		}
		for c := range dr {
			v := b[base+c*cs+j]
			dr[c], di[c] = v[0], v[1]
		}
	}
}

// scatterLanes is the inverse of gatherLanes in natural order: it merges
// the first cols lanes of the SoA planes back into the coefficients b.
func scatterLanes[F tensor.Real](b [][2]F, dre, dim []F, nl, base, cs, es, n, cols int) {
	for j := 0; j < n; j++ {
		sr, si := dre[j*nl:j*nl+cols], dim[j*nl:j*nl+cols]
		if cs == 1 {
			row := b[base+j*es : base+j*es+cols]
			for c := range row {
				row[c] = [2]F{sr[c], si[c]}
			}
			continue
		}
		for c := range sr {
			b[base+c*cs+j] = [2]F{sr[c], si[c]}
		}
	}
}

// gather and scatter are gatherLanes and scatterLanes over adjacent
// columns (the Y/Z passes), b starting at the block's first column.
func (g goLanes[F]) gather(sre, sim []F, b [][2]F, perm []int, es, n, cols, lim int) {
	gatherLanes(sre, sim, b, perm, int(g), 0, 1, es, n, cols, lim)
}

func (g goLanes[F]) scatter(b [][2]F, dre, dim []F, es, n, cols int) {
	scatterLanes(b, dre, dim, int(g), 0, 1, es, n, cols)
}

// blockLanes applies pl to every line of the given stride inside buf
// (line c, for c = 0 .. width−1, at buf[base + c + j·stride]): each block
// of k.nl adjacent columns is gathered into SoA planes, transformed in
// lockstep, and merged back. Elements j ≥ lim read as zero (gatherLanes).
func blockLanes[F tensor.Real, C Complex](k *laneKernels[F], pl *PlanOf[C], buf []C, base, width, stride, lim int, inverse bool, lt *laneTile[F]) {
	b, nl := pairs[F](buf), k.nl
	countVec()
	for x0 := 0; x0 < width; x0 += nl {
		cols := min(nl, width-x0)
		k.gather(lt.dstRe, lt.dstIm, b[base+x0:], pl.perm, stride, pl.n, cols, lim)
		laneDFT(k, pl, inverse, lt.dstRe, lt.dstIm)
		k.scatter(b[base+x0:], lt.dstRe, lt.dstIm, stride, pl.n, cols)
	}
}
