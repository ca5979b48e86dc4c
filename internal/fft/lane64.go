package fft

// This file implements the lane-batched complex64 line transforms: instead
// of transforming one line at a time, lanes (= 8) independent lines run
// through every butterfly in lockstep, stored SoA-style as two float32
// planes (one for real parts, one for imaginary parts) with element j of
// lane c at plane index j*lanes+c. Each butterfly then becomes straight-line
// float32 arithmetic over 8 contiguous floats with a broadcast twiddle and
// no cross-lane dependencies — exactly the shape an 8-wide AVX2 register
// executes in one instruction per operation, and the shape the hand
// assembly in kernels64_amd64.s implements for every radix the plans
// produce (2, 3, 4 and 5) and for the r2c/c2r split passes. The Go lane
// kernels below are the portable twins of those bodies.
//
// The lane count matches lineBlock, so the lane path is a drop-in
// replacement for the blockLines cache tiling: the gather that used to
// transpose 8 strided columns into a contiguous tile now also splits the
// interleaved complex values into the two planes, at the same bandwidth.

// lanes is the number of independent lines a lane-batched butterfly
// processes in lockstep: 8 float32 values fill one 256-bit AVX2 register.
const lanes = lineBlock

// laneTile is the per-transform scratch for the lane-batched passes: six
// float32 planes of capacity n·lanes each (src and dst pairs for the
// recursion, an out pair for the r2c combine whose packed rows are one
// element longer than the half-length transform).
type laneTile struct {
	srcRe, srcIm []float32
	dstRe, dstIm []float32
	outRe, outIm []float32
}

func newLaneTile(n int) *laneTile {
	buf := make([]float32, 6*n*lanes)
	t := &laneTile{}
	t.srcRe, buf = buf[:n*lanes], buf[n*lanes:]
	t.srcIm, buf = buf[:n*lanes], buf[n*lanes:]
	t.dstRe, buf = buf[:n*lanes], buf[n*lanes:]
	t.dstIm, buf = buf[:n*lanes], buf[n*lanes:]
	t.outRe, t.outIm = buf[:n*lanes], buf[n*lanes:]
	return t
}

// recLane64 is rec64 across lanes independent lines: dst and src are SoA
// plane pairs, with logical element j of this sub-transform at plane index
// j*stride*lanes (src) and j*lanes (dst). The recursion structure mirrors
// rec64 exactly; only the innermost arithmetic widens from one complex
// value to lanes of them.
func recLane64(factors []int, pn int, dstRe, dstIm, srcRe, srcIm []float32, n, stride, fi int, w []complex64) {
	if n == 1 {
		copy(dstRe[:lanes], srcRe[:lanes])
		copy(dstIm[:lanes], srcIm[:lanes])
		return
	}
	radix := factors[fi]
	m := n / radix
	for j := 0; j < radix; j++ {
		recLane64(factors, pn, dstRe[j*m*lanes:(j+1)*m*lanes], dstIm[j*m*lanes:(j+1)*m*lanes],
			srcRe[j*stride*lanes:], srcIm[j*stride*lanes:], m, stride*radix, fi+1, w)
	}
	step := pn / n
	switch radix {
	case 2:
		bfLaneR2(dstRe, dstIm, m, w, step)
	case 3:
		t := w[pn/3] // ω₃ (to float32 rounding)
		bfLaneR3(dstRe, dstIm, m, w, step, real(t), imag(t))
	case 4:
		neg := w[pn/4] // -i forward, +i inverse (to float32 rounding)
		bfLaneR4(dstRe, dstIm, m, pn, w, step, real(neg), imag(neg))
	case 5:
		t1, t2 := w[pn/5], w[2*pn/5] // ω₅, ω₅²
		bfLaneR5(dstRe, dstIm, m, w, step, real(t1), imag(t1), real(t2), imag(t2))
	}
}

// bfLaneR2Go is the portable radix-2 lane butterfly:
// (a, b) -> (a + w·b, a − w·b) across all lanes of each element pair.
func bfLaneR2Go(dre, dim []float32, m int, w []complex64, step int) {
	for k := 0; k < m; k++ {
		t := w[k*step]
		tr, ti := real(t), imag(t)
		o0, o1 := k*lanes, (m+k)*lanes
		for c := 0; c < lanes; c++ {
			ar, ai := dre[o0+c], dim[o0+c]
			br, bi := dre[o1+c], dim[o1+c]
			xr := br*tr - bi*ti
			xi := br*ti + bi*tr
			dre[o0+c], dim[o0+c] = ar+xr, ai+xi
			dre[o1+c], dim[o1+c] = ar-xr, ai-xi
		}
	}
}

// bfLaneR4Go is the portable radix-4 lane butterfly, the lane-batched
// mirror of rec64's case 4 (nr+i·ni is ∓i, the radix-4 quarter twiddle).
func bfLaneR4Go(dre, dim []float32, m, pn int, w []complex64, step int, nr, ni float32) {
	i2, i3 := 0, 0
	for k := 0; k < m; k++ {
		t1 := w[k*step]
		t2 := w[i2]
		t3 := w[i3]
		o0, o1, o2, o3 := k*lanes, (m+k)*lanes, (2*m+k)*lanes, (3*m+k)*lanes
		for c := 0; c < lanes; c++ {
			ar, ai := dre[o0+c], dim[o0+c]
			xr, xi := dre[o1+c], dim[o1+c]
			br := xr*real(t1) - xi*imag(t1)
			bi := xr*imag(t1) + xi*real(t1)
			xr, xi = dre[o2+c], dim[o2+c]
			cr := xr*real(t2) - xi*imag(t2)
			ci := xr*imag(t2) + xi*real(t2)
			xr, xi = dre[o3+c], dim[o3+c]
			dr := xr*real(t3) - xi*imag(t3)
			di := xr*imag(t3) + xi*real(t3)
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

// bfLaneR3Go is the portable radix-3 lane butterfly, the lane-batched
// mirror of rec64's case 3 (wr+i·wi is ω₃, the third-turn twiddle).
func bfLaneR3Go(dre, dim []float32, m int, w []complex64, step int, wr, wi float32) {
	for k := 0; k < m; k++ {
		t1 := w[k*step]
		t2 := w[2*k*step]
		o0, o1, o2 := k*lanes, (m+k)*lanes, (2*m+k)*lanes
		for c := 0; c < lanes; c++ {
			ar, ai := dre[o0+c], dim[o0+c]
			xr, xi := dre[o1+c], dim[o1+c]
			br := xr*real(t1) - xi*imag(t1)
			bi := xr*imag(t1) + xi*real(t1)
			xr, xi = dre[o2+c], dim[o2+c]
			cr := xr*real(t2) - xi*imag(t2)
			ci := xr*imag(t2) + xi*real(t2)
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

// bfLaneR5Go is the portable radix-5 lane butterfly, the lane-batched
// mirror of rec64's case 5 (r1+i·i1 is ω₅, r2+i·i2 is ω₅²).
func bfLaneR5Go(dre, dim []float32, m int, w []complex64, step int, r1, i1, r2, i2 float32) {
	var xr, xi [5]float32
	for k := 0; k < m; k++ {
		var t [5]complex64
		for j := 1; j < 5; j++ {
			t[j] = w[j*k*step]
		}
		for c := 0; c < lanes; c++ {
			xr[0], xi[0] = dre[k*lanes+c], dim[k*lanes+c]
			for j := 1; j < 5; j++ {
				o := (j*m+k)*lanes + c
				vr, vi := dre[o], dim[o]
				xr[j] = vr*real(t[j]) - vi*imag(t[j])
				xi[j] = vr*imag(t[j]) + vi*real(t[j])
			}
			s1r, s1i := xr[1]+xr[4], xi[1]+xi[4]
			d1r, d1i := xr[1]-xr[4], xi[1]-xi[4]
			s2r, s2i := xr[2]+xr[3], xi[2]+xi[3]
			d2r, d2i := xr[2]-xr[3], xi[2]-xi[3]
			t1r, t1i := xr[0]+r1*s1r+r2*s2r, xi[0]+r1*s1i+r2*s2i
			u1r, u1i := -(i1*d1i + i2*d2i), i1*d1r+i2*d2r
			t2r, t2i := xr[0]+r2*s1r+r1*s2r, xi[0]+r2*s1i+r1*s2i
			u2r, u2i := -(i2*d1i - i1*d2i), i2*d1r-i1*d2r
			dre[k*lanes+c], dim[k*lanes+c] = xr[0]+s1r+s2r, xi[0]+s1i+s2i
			dre[(m+k)*lanes+c], dim[(m+k)*lanes+c] = t1r+u1r, t1i+u1i
			dre[(2*m+k)*lanes+c], dim[(2*m+k)*lanes+c] = t2r+u2r, t2i+u2i
			dre[(3*m+k)*lanes+c], dim[(3*m+k)*lanes+c] = t2r-u2r, t2i-u2i
			dre[(4*m+k)*lanes+c], dim[(4*m+k)*lanes+c] = t1r-u1r, t1i-u1i
		}
	}
}

// r2cLaneCombineGo is r2cCombine64 across lanes: the even-length forward
// split butterfly over k = 1 .. m−1 on SoA planes (z of m elements, out of
// m+1; the caller fills out[0] and out[m] from z[0]).
func r2cLaneCombineGo(zre, zim, outre, outim []float32, wf []complex64, m int) {
	for k := 1; k < m; k++ {
		t := wf[k]
		tr, ti := real(t), imag(t)
		ou, od := k*lanes, (m-k)*lanes
		for c := 0; c < lanes; c++ {
			ar, ai := zre[ou+c], zim[ou+c]
			br, bi := zre[od+c], zim[od+c]
			feR, feI := (ar+br)*0.5, (ai-bi)*0.5
			foR, foI := (ai+bi)*0.5, (br-ar)*0.5
			outre[ou+c] = feR + foR*tr - foI*ti
			outim[ou+c] = feI + foR*ti + foI*tr
		}
	}
}

// c2rLanePreGo is c2rPre64 across lanes: the even-length inverse pre-pass
// over k = 0 .. m−1 on SoA planes (src of m+1 elements, z of m), with the
// output scale cs folded in.
func c2rLanePreGo(zre, zim, sre, sim []float32, wf []complex64, m int, cs float32) {
	for k := 0; k < m; k++ {
		t := wf[k]
		tr, ti := real(t), imag(t)
		ou, od := k*lanes, (m-k)*lanes
		for c := 0; c < lanes; c++ {
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

// gatherLanes64 transposes up to lanes adjacent strided columns of buf into
// the SoA planes: column c (c < b) has element j at buf[base+c+j*stride].
// Unused lanes (c ≥ b, the tail block of a pass) are zero-filled so the
// butterflies run on defined values; their results are discarded by the
// scatter.
func gatherLanes64(sre, sim []float32, buf []complex64, base, stride, n, b int) {
	for j := 0; j < n; j++ {
		row := buf[base+j*stride : base+j*stride+b]
		o := j * lanes
		for c, v := range row {
			sre[o+c] = real(v)
			sim[o+c] = imag(v)
		}
		for c := b; c < lanes; c++ {
			sre[o+c], sim[o+c] = 0, 0
		}
	}
}

// scatterLanes64 is the inverse of gatherLanes64: it merges the first b
// lanes of the SoA planes back into the interleaved strided columns.
func scatterLanes64(buf []complex64, dre, dim []float32, base, stride, n, b int) {
	for j := 0; j < n; j++ {
		row := buf[base+j*stride:]
		o := j * lanes
		for c := 0; c < b; c++ {
			row[c] = complex(dre[o+c], dim[o+c])
		}
	}
}

// blockLanes64 is the lane-batched counterpart of blockLines for complex64
// buffers on 5-smooth plans: each block of lanes adjacent columns is
// split-gathered into SoA planes, transformed in lockstep, and merged back.
func blockLanes64(pl *PlanOf[complex64], buf []complex64, base, width, stride, n int, inverse bool, lt *laneTile) {
	w := pl.w
	if inverse {
		w = pl.winv
	}
	countVec()
	for x0 := 0; x0 < width; x0 += lanes {
		b := min(lanes, width-x0)
		gatherLanes64(lt.srcRe, lt.srcIm, buf, base+x0, stride, n, b)
		recLane64(pl.factors, n, lt.dstRe, lt.dstIm, lt.srcRe, lt.srcIm, n, 1, 0, w)
		scatterLanes64(buf, lt.dstRe, lt.dstIm, base+x0, stride, n, b)
	}
}
