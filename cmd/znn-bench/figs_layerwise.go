package main

import (
	"fmt"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// layerwiseComparison describes one Fig. 8/9 sweep: seconds/update of ZNN
// (FFT, task-parallel) against the layer-at-a-time direct-convolution
// schedule of the paper's GPU frameworks (Section XI), both measured on
// this host.
type layerwiseComparison struct {
	title   string
	dims    int
	width   int
	kernels []int
	outputs []int // output-size labels o (the paper's "Output Size" axis)
	spec    func(k int) string
}

// paperLayerwiseComparisons returns the Fig. 8 and Fig. 9 sweeps: networks
// CTPCTPCTCTCTCT of width 40 (paper) or a scaled version. Sparse training:
// the max-pooling net's output patch p covers an o = 4p output lattice
// (two 2× poolings), so the patch extent is max(1, o/4).
func paperLayerwiseComparisons(cfg config) []layerwiseComparison {
	spec2d := func(k int) string {
		return fmt.Sprintf("C%d-Trelu-P2-C%d-Trelu-P2-C%d-Trelu-C%d-Trelu-C%d-Trelu-C%d-Trelu",
			k, k, k, k, k, k)
	}
	spec3d := spec2d
	if cfg.paperScale {
		return []layerwiseComparison{
			{
				title: "Fig. 8 — 2D ConvNets (width 40, CTPCTPCTCTCTCT)",
				dims:  2, width: 40,
				kernels: []int{10, 20, 30, 40},
				outputs: []int{1, 2, 4, 8, 16, 32, 64},
				spec:    spec2d,
			},
			{
				title: "Fig. 9 — 3D ConvNets (width 40, CTPCTPCTCTCTCT)",
				dims:  3, width: 40,
				kernels: []int{3, 5, 7},
				outputs: []int{1, 2, 4, 6, 8},
				spec:    spec3d,
			},
		}
	}
	return []layerwiseComparison{
		{
			title: "Fig. 8 (scaled) — 2D ConvNets (width 8, CTPCTPCTCT)",
			dims:  2, width: 8,
			kernels: []int{6, 10, 14},
			outputs: []int{1, 4, 8, 16},
			spec: func(k int) string {
				return fmt.Sprintf("C%d-Trelu-P2-C%d-Trelu-P2-C%d-Trelu-C%d-Trelu", k, k, k, k)
			},
		},
		{
			title: "Fig. 9 (scaled) — 3D ConvNets (width 6, CTPCTPCTCT)",
			dims:  3, width: 6,
			kernels: []int{3, 5, 7},
			outputs: []int{1, 4, 8},
			spec: func(k int) string {
				return fmt.Sprintf("C%d-Trelu-P2-C%d-Trelu-P2-C%d-Trelu-C%d-Trelu", k, k, k, k)
			},
		},
	}
}

func fig8(cfg config) { layerwiseFigure(cfg, 0) }
func fig9(cfg config) { layerwiseFigure(cfg, 1) }

func layerwiseFigure(cfg config, which int) {
	c := paperLayerwiseComparisons(cfg)[which]
	header(c.title + " — seconds/update")
	fmt.Println("ZNN: task-parallel FFT conv + memoization")
	fmt.Println("layerwise-direct: one layer at a time, direct conv, barrier per layer")
	fmt.Printf("(both measured on this host, %d workers)\n\n", cfg.workers)

	for _, k := range c.kernels {
		fmt.Printf("kernel %d%s:\n", k, dimsSuffix(c.dims))
		fmt.Printf("  %8s %12s %18s\n", "out", "ZNN (s)", "layerwise-dir (s)")
		for _, o := range c.outputs {
			b := benchNet{spec: c.spec(k), dims: c.dims, out: max(1, o/4), method: conv.FFT}
			znnSec, err := measureParallel(cfg, b, c.width, cfg.workers)
			if err != nil {
				fmt.Printf("  %8d  error: %v\n", o, err)
				continue
			}
			b.method = conv.Direct
			dirStr := "err"
			if dirSec, err := measureLayerwise(cfg, b, c.width); err == nil {
				dirStr = fmt.Sprintf("%.4f", dirSec)
			}
			fmt.Printf("  %8d %12.4f %18s\n", o, znnSec, dirStr)
		}
	}
	fmt.Println("\npaper's shape: ZNN's FFT cost is kernel-size independent while the")
	fmt.Println("direct-conv baseline grows with the kernel volume, so ZNN overtakes it")
	fmt.Println("as kernels grow (2D: ≥30²; 3D: ≥5³–7³).")
}

func dimsSuffix(d int) string {
	if d == 2 {
		return "²"
	}
	return "³"
}

// measureLayerwise times one layer-at-a-time training round (direct conv,
// level-synchronous parallelism) on cfg.workers workers.
func measureLayerwise(cfg config, b benchNet, width int) (float64, error) {
	nw, in, des, err := buildBench(b, width, 7)
	if err != nil {
		return 0, err
	}
	x, err := net.NewLayerwiseExecutor(nw, cfg.workers)
	if err != nil {
		return 0, err
	}
	return timeRounds(cfg, 1, 3, in, des, func(in, des []*tensor.Tensor) (float64, error) {
		return x.Round(in, des, ops.SquaredLoss{}, graph.UpdateOpts{Eta: 1e-6})
	}), nil
}
