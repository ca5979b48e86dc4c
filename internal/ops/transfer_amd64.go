//go:build amd64 && !purego

package ops

import "znn/internal/cpu"

// init installs transfer_amd64.s under the conv and fft kernels' gate, which
// implies math's useFMA (AVX and FMA): math.Exp runs the FMA path that
// logisticAsm copies, unless GODEBUG turned the runtime's FMA off.
func init() {
	if cpu.VectorOK() {
		reluForward = reluAVX2
		if expOnFMAPath() {
			logisticForward = logisticAVX2
		}
	}
}

// expOnFMAPath reports whether logisticAsm and logisticGo agree on four
// sigmoids that archExp's FMA and non-FMA paths round apart.
func expOnFMAPath() bool {
	src := []float64{-0.375, -1.8125, -2.375, -2.5625}
	var got, want [4]float64
	logisticAsm(&got[0], &src[0], 4, 0)
	logisticGo(want[:], src, 0)
	return got == want
}

//go:noescape
func logisticAsm(dst, src *float64, n int, bias float64) int

//go:noescape
func reluAsm(dst, src *float64, n int, bias float64)

// logisticAVX2 runs 4-voxel blocks in assembly; a block out of its range,
// and the last len(dst) mod 4 voxels, take the Go loop.
func logisticAVX2(dst, src []float64, bias float64) {
	src = src[:len(dst)]
	for i := 0; i < len(dst); {
		if n := (len(dst) - i) &^ 3; n > 0 {
			i += logisticAsm(&dst[i], &src[i], n, bias)
		}
		j := min(i+4, len(dst))
		logisticGo(dst[i:j], src[i:j], bias)
		i = j
	}
}

// reluAVX2 runs 4-voxel blocks in assembly, the last len(dst) mod 4 in Go.
func reluAVX2(dst, src []float64, bias float64) {
	src = src[:len(dst)]
	n := len(dst) &^ 3
	if n > 0 {
		reluAsm(&dst[0], &src[0], n, bias)
	}
	reluGo(dst[n:], src[n:], bias)
}
