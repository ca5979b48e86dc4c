package conv

import "math"

// The direct-convolution primitives (package doc, "Direct kernels"): the Go
// twins below, unless kernels_amd64.go's init installs the assembly.
var (
	gather  = gatherGo
	dotTaps = dotGo
)

// gatherGo sets dst[b·n+i] = Σ_t ws[t·B+b]·srcs[t][i] for each of the
// B = len(ws)/len(srcs) outputs of n = len(dst)/B voxels, each voxel a
// math.FMA chain over the taps in list order from +0. Every tap carries its
// own source run, so one chain spans the taps of several images (a node
// sum); the B outputs, B = 1 for one node, read the same runs with their
// own weights (sibling nodes). With no taps dst is zero.
func gatherGo(dst []float64, srcs [][]float64, ws []float64) {
	nb := max(len(ws)/max(len(srcs), 1), 1)
	n := len(dst) / nb
	for b := range nb {
		d := dst[b*n:][:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			var a0, a1, a2, a3 float64
			for t, src := range srcs {
				w, s := ws[t*nb+b], src[i:][:4]
				a0 = math.FMA(w, s[0], a0)
				a1 = math.FMA(w, s[1], a1)
				a2 = math.FMA(w, s[2], a2)
				a3 = math.FMA(w, s[3], a3)
			}
			d[i], d[i+1], d[i+2], d[i+3] = a0, a1, a2, a3
		}
		for ; i < n; i++ {
			var a float64
			for t, src := range srcs {
				a = math.FMA(ws[t*nb+b], src[i], a)
			}
			d[i] = a
		}
	}
}

// dotGo sets dst[t] = Σ_i a[i]·b[offs[t]+i] in the assembly's fixed order:
// over the first len(a)&^15 elements element i accumulates into lane i mod
// 16 (four 4-lane vectors L0..L3), the lanes reduce as
// v = (L0+L1) + (L2+L3) and then (v0+v2) + (v1+v3), and the remaining
// elements continue that sum as a math.FMA chain. Lanes are independent
// chains, so the twin runs them four at a time; the assembly runs three
// taps per load of a, each tap's lanes and tree unchanged.
func dotGo(dst, a, b []float64, offs []int) {
	nb := len(a) &^ 15
	for t, off := range offs {
		bt := b[off:][:len(a)]
		var acc [16]float64
		for l := 0; l < 16; l += 4 {
			var s0, s1, s2, s3 float64
			for i := l; i < nb; i += 16 {
				x, y := a[i:i+4:i+4], bt[i:i+4:i+4]
				s0, s1 = math.FMA(x[0], y[0], s0), math.FMA(x[1], y[1], s1)
				s2, s3 = math.FMA(x[2], y[2], s2), math.FMA(x[3], y[3], s3)
			}
			acc[l], acc[l+1], acc[l+2], acc[l+3] = s0, s1, s2, s3
		}
		v := func(l int) float64 { return (acc[l] + acc[4+l]) + (acc[8+l] + acc[12+l]) }
		s := (v(0) + v(2)) + (v(1) + v(3))
		for i := nb; i < len(a); i++ {
			s = math.FMA(a[i], bt[i], s)
		}
		dst[t] = s
	}
}
