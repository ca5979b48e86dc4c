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
func dotAsm(dst, a *float64, n int, b *float64, off *int, nt int)

// gatherAVX2 runs runs of 32 voxels or more in assembly, shorter ones in Go.
func gatherAVX2(dst []float64, srcs [][]float64, ws []float64) {
	bad := len(srcs) != len(ws)
	for _, s := range srcs {
		bad = bad || len(s) < len(dst)
	}
	if bad {
		panic("conv: direct kernel taps outside their source")
	}
	if len(dst) < 32 || len(ws) == 0 {
		gatherGo(dst, srcs, ws)
		return
	}
	gatherAsm(&dst[0], len(dst), &srcs[0], &ws[0], len(ws))
}

// dotAVX2 runs the 16-element blocks in assembly and the tail in Go.
func dotAVX2(dst, a, b []float64, offs []int) {
	checkTaps(len(a), b, len(dst), offs)
	nb := len(a) &^ 15
	if nb > 0 && len(offs) > 0 {
		dotAsm(&dst[0], &a[0], nb, &b[0], &offs[0], len(offs))
	} else {
		clear(dst)
	}
	dotTail(dst, a, b, offs, nb)
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
