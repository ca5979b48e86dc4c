//go:build amd64 && !purego

package conv

import "znn/internal/cpu"

// init installs kernels_amd64.s under internal/fft's gate: AVX2, FMA, OS YMM.
func init() {
	if cpu.VectorOK() {
		gather, dotTaps = gatherAVX2, dotAVX2
	}
}

//go:noescape
func gatherAsm(dst *float64, n int, srcs *[]float64, w *float64, nt int)

//go:noescape
func gather2Asm(dst *float64, n int, srcs *[]float64, w *float64, nt int)

//go:noescape
func dotAsm(dst, a *float64, n int, b *float64, off *int, nt int)

// gatherAVX2 runs one output's runs of 32 voxels or more, or two outputs'
// runs of 16 or more, in assembly, and everything else in Go.
func gatherAVX2(dst []float64, srcs [][]float64, ws []float64) {
	nb := len(ws) / max(len(srcs), 1)
	n := len(dst) / max(nb, 1)
	bad := len(srcs) > 0 && (nb < 1 || nb > 2 || len(ws) != nb*len(srcs) || len(dst)%nb != 0)
	for _, s := range srcs {
		bad = bad || len(s) < n
	}
	switch {
	case bad:
		panic("conv: direct kernel taps outside their source")
	case nb == 1 && n >= 32:
		gatherAsm(&dst[0], n, &srcs[0], &ws[0], len(srcs))
	case nb == 2 && n >= 16:
		gather2Asm(&dst[0], n, &srcs[0], &ws[0], len(srcs))
	default:
		gatherGo(dst, srcs, ws)
	}
}

// dotAVX2 runs runs of 16 elements or more in assembly, shorter ones in Go.
func dotAVX2(dst, a, b []float64, offs []int) {
	checkTaps(len(a), b, len(dst), offs)
	if len(a) < 16 || len(offs) == 0 {
		dotGo(dst, a, b, offs)
		return
	}
	dotAsm(&dst[0], &a[0], len(a), &b[0], &offs[0], len(offs))
}

// checkTaps bounds-checks every tap's run src[off : off+n] for the assembly.
func checkTaps(n int, src []float64, taps int, offs []int) {
	bad := len(offs) != taps
	for _, off := range offs {
		bad = bad || off < 0 || off+n > len(src)
	}
	if bad {
		panic("conv: direct kernel taps outside their source")
	}
}
