package fft

// This file implements the lane-batched complex64 line transforms: instead
// of transforming one line at a time, lanes (= 8) independent lines run
// through every butterfly in lockstep, stored SoA-style as two float32
// planes (one for real parts, one for imaginary parts) with element j of
// lane c at plane index j*lanes+c. Each butterfly then becomes straight-line
// float32 arithmetic over 8 contiguous floats with a broadcast twiddle and
// no cross-lane dependencies — exactly the shape an 8-wide AVX2 register
// executes in one instruction per operation, and the shape the hand
// assembly in kernels64_amd64.s implements for radix 2 and 4 and the
// r2c/c2r split passes. Radix 3 and 5 stay in the Go lane kernels below
// (still lane-batched: one twiddle load feeds 8 lines).
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
// j*stride*lanes (src) and j*lanes (dst). The recursion structure and the
// incremental twiddle indexing mirror rec64 exactly; only the innermost
// arithmetic widens from one complex value to lanes of them.
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
	case 4:
		neg := w[pn/4] // -i forward, +i inverse (to float32 rounding)
		bfLaneR4(dstRe, dstIm, m, pn, w, step, real(neg), imag(neg))
	default:
		bfLaneGenGo(dstRe, dstIm, m, pn, w, step, pn/radix, radix)
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

// bfLaneGenGo handles the remaining radices (3 and 5) with the same
// incremental twiddle bookkeeping as rec64's default case, lane-batched.
// It has no assembly counterpart: one broadcast twiddle still feeds 8
// lanes of straight-line float32 math, which is most of the win.
func bfLaneGenGo(dre, dim []float32, m, pn int, w []complex64, step, stepR, radix int) {
	var tre, tim [maxRadix][lanes]float32
	var idx [maxRadix]int // idx[j] = (j·k·step) mod pn
	for k := 0; k < m; k++ {
		for j := 0; j < radix; j++ {
			t := w[idx[j]]
			wr, wi := real(t), imag(t)
			o := (j*m + k) * lanes
			for c := 0; c < lanes; c++ {
				xr, xi := dre[o+c], dim[o+c]
				tre[j][c] = xr*wr - xi*wi
				tim[j][c] = xr*wi + xi*wr
			}
		}
		for q := 0; q < radix; q++ {
			accR, accI := tre[0], tim[0]
			qs := q * stepR // < pn
			iq := 0         // (j·q·stepR) mod pn
			for j := 1; j < radix; j++ {
				if iq += qs; iq >= pn {
					iq -= pn
				}
				t := w[iq]
				wr, wi := real(t), imag(t)
				for c := 0; c < lanes; c++ {
					accR[c] += tre[j][c]*wr - tim[j][c]*wi
					accI[c] += tre[j][c]*wi + tim[j][c]*wr
				}
			}
			o := (q*m + k) * lanes
			for c := 0; c < lanes; c++ {
				dre[o+c], dim[o+c] = accR[c], accI[c]
			}
		}
		for j := 1; j < radix; j++ {
			if idx[j] += j * step; idx[j] >= pn {
				idx[j] -= pn
			}
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
