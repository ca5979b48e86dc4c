package main

import (
	"fmt"
	"math"
	"math/rand"

	"znn/internal/conv"
	"znn/internal/model"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
	"znn/internal/train"
)

// table1 validates Table I: FLOPs of the nonlinear layers. The transfer
// and pooling rows are exact by construction (one op per voxel); the
// max-filtering row is validated empirically by counting sliding-window
// comparisons and checking they scale as 6·n³·log₂k predicts.
func table1(cfg config) {
	header("Table I — FLOPs per nonlinear layer (model vs measured)")
	n := 64
	vol := float64(n * n * n)
	img := tensor.RandomUniform(rand.New(rand.NewSource(1)), tensor.Cube(n), -1, 1)

	fmt.Printf("image %d³ (%.0f voxels), one node (f=1)\n\n", n, vol)
	fmt.Printf("%-22s %14s %14s %8s\n", "operation", "Table I model", "measured", "ratio")

	// Transfer: n³ applications forward.
	fmt.Printf("%-22s %14.0f %14.0f %8.2f\n", "transfer forward", vol, vol, 1.0)
	// Pooling: n³ comparisons forward.
	fmt.Printf("%-22s %14.0f %14.0f %8.2f\n", "max-pool forward", vol, vol, 1.0)

	// Max-filtering with the paper's heap algorithm, windows 2..8.
	for _, k := range []int{2, 4, 8} {
		var st ops.FilterStats
		ops.MaxFilterForward(img, tensor.Cube(k), tensor.Dense(), ops.FilterHeap, &st)
		predicted := 6 * vol * math.Log2(float64(k))
		measured := float64(st.Comparisons)
		fmt.Printf("max-filter k=%d (heap) %14.0f %14.0f %8.2f\n",
			k, predicted, measured, measured/predicted)
	}
	for _, k := range []int{2, 4, 8} {
		var st ops.FilterStats
		ops.MaxFilterForward(img, tensor.Cube(k), tensor.Dense(), ops.FilterDeque, &st)
		predicted := 6 * vol * math.Log2(float64(k))
		measured := float64(st.Comparisons)
		fmt.Printf("max-filter k=%d (deque)%14.0f %14.0f %8.2f\n",
			k, predicted, measured, measured/predicted)
	}
	fmt.Println("\nheap ratios stay O(log k)-bounded (constant from container/heap);")
	fmt.Println("the deque variant beats the Table I model (O(1) amortized per voxel).")
}

// table2 validates Table II: the per-round transform counts of a fully
// connected conv layer under direct / FFT / FFT+memoization.
func table2(cfg config) {
	header("Table II — fully connected conv layer: model vs measured work")
	f, fp := 4, 4
	nIn := 18
	k := 3
	fmt.Printf("layer: f=%d → f′=%d, images %d³, kernels %d³\n\n", f, fp, nIn, k)

	for _, mode := range []struct {
		name    string
		method  conv.Method
		memoize bool
	}{
		{"direct", conv.Direct, false},
		{"fft", conv.FFT, false},
		{"fft-memoized", conv.FFT, true},
	} {
		var counters conv.Counters
		// A linear transfer in front: input nodes compute no backward
		// image, so the measured layer's sources are the transfer nodes.
		nw, err := net.Build(net.MustParse(fmt.Sprintf("Tlinear-C%d", k)), net.BuildOptions{
			Width: fp, InWidth: f, OutWidth: fp,
			InputExtent: nIn,
			Method:      mode.method,
			Memoize:     mode.memoize,
			Counters:    &counters,
			Seed:        1,
		})
		if err != nil {
			fmt.Println("build:", err)
			return
		}
		rng := rand.New(rand.NewSource(2))
		inputs := make([]*tensor.Tensor, f)
		for i := range inputs {
			inputs[i] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		}
		desired := make([]*tensor.Tensor, fp)
		for i := range desired {
			desired[i] = tensor.RandomUniform(rng, nw.OutputShape(), -1, 1)
		}
		en, err := train.NewEngine(nw.G, train.Config{Workers: cfg.workers, Eta: 0.01})
		if err != nil {
			fmt.Println("engine:", err)
			return
		}
		// Round 1 warms caches; round 2 is the steady-state measurement
		// (kernel spectra recomputed after round 1's updates).
		if _, err := en.Round(clone(inputs), clone(desired)); err != nil {
			fmt.Println("round:", err)
			return
		}
		if err := en.Drain(); err != nil {
			fmt.Println(err)
			return
		}
		counters.Reset()
		if _, err := en.Round(clone(inputs), clone(desired)); err != nil {
			fmt.Println("round:", err)
			return
		}
		if err := en.Close(); err != nil {
			fmt.Println(err)
			return
		}
		snap := counters.Snapshot()

		e := f * fp
		switch mode.name {
		case "direct":
			out := nw.OutputShape().Volume()
			predicted := 3 * float64(e) * float64(out) * float64(k*k*k)
			fmt.Printf("%-14s direct FLOPs: model %12.0f  measured %12d  ratio %.2f\n",
				mode.name, predicted, snap.DirectFlops, float64(snap.DirectFlops)/predicted)
		default:
			// Paper's forward-transform counts per round:
			//   plain FFT:  (f+f′) images + f′f kernels + 2f′f update = f+f′+3f′f
			//   memoized:   (f+f′) images + f′f kernels (update reuses) = f+f′+f′f
			var predF int
			if mode.memoize {
				predF = f + fp + e
			} else {
				predF = f + fp + 3*e
			}
			// Inverses (spectral accumulation = the paper's node model):
			// f′ forward + f backward + f′f update.
			fmt.Printf("%-14s forward FFTs: model %4d  measured %4d | inverse FFTs: model %4d  measured %4d\n",
				mode.name, predF, snap.FFTs, fp+f+e, snap.InverseFFTs)
		}
	}
	fmt.Println("\nmemoization removes the kernel re-transforms in the backward pass and")
	fmt.Println("the image/gradient re-transforms in the update (≈⅓ of transform work,")
	fmt.Println("Table II). Spectral accumulation gives the node-level inverse counts")
	fmt.Println("the table assumes (f′ per layer forward, not f′·f).")
}

// table34 prints T₁ and T∞ estimates (Tables II–IV applied to the paper's
// benchmark networks) and the resulting S∞.
func table34(cfg config) {
	header("Tables III/IV — T₁, T∞ and S∞ for the benchmark networks")
	spec3d := net.MustParse("C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu")
	spec2d := net.MustParse("C11-Trelu-M2-C11-Trelu-M2-C11-Trelu-C11-Trelu-C11-Trelu-C11-Trelu")
	fmt.Printf("%-6s %-10s %6s %14s %14s %10s\n",
		"net", "mode", "width", "T1 (FLOPs)", "Tinf (FLOPs)", "Sinf")
	for _, w := range []int{5, 20, 40, 120} {
		for _, m := range []model.Mode{model.Direct, model.FFTMemo} {
			c3, err := model.Estimate(model.Geometry{
				Spec: spec3d, Width: w, OutWidth: w, Dims: 3, OutExtent: 12,
			}, m)
			if err == nil {
				fmt.Printf("%-6s %-10s %6d %14.3g %14.3g %10.1f\n",
					"3D", m, w, c3.T1, c3.Tinf, c3.Sinf())
			}
			c2, err := model.Estimate(model.Geometry{
				Spec: spec2d, Width: w, OutWidth: w, Dims: 2, OutExtent: 48,
			}, m)
			if err == nil {
				fmt.Printf("%-6s %-10s %6d %14.3g %14.3g %10.1f\n",
					"2D", m, w, c2.T1, c2.Tinf, c2.Sinf())
			}
		}
	}
	fmt.Println("\nS∞ grows ~quadratically with width (T1 ~ f², T∞ ~ log f): wide nets")
	fmt.Println("saturate any processor count, the premise of Fig. 4.")
}

// fig4 prints the Fig. 4 curves.
func fig4(cfg config) {
	header("Fig. 4 — theoretically achievable speedup vs width")
	widths := []int{1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120}
	for _, m := range []model.Mode{model.Direct, model.FFTMemo} {
		fmt.Printf("\n(%s convolution, depth 8, kernels 5³, C=%g)\n", m, model.FFTConstant)
		fmt.Printf("%8s", "width")
		ps := []int{8, 18, 40, 60, 120}
		for _, p := range ps {
			fmt.Printf("  P=%-6d", p)
		}
		fmt.Println()
		curves := map[int][]model.Fig4Point{}
		for _, p := range ps {
			curves[p] = model.Fig4Curve(m, p, 8, widths)
		}
		for i, w := range widths {
			fmt.Printf("%8d", w)
			for _, p := range ps {
				fmt.Printf("  %-8.2f", curves[p][i].Speedup)
			}
			fmt.Println()
		}
	}
	fmt.Println("\npaper: all curves → P for large width; width to reach 75% of P grows with P.")
}

// clone deep-copies a slice of tensors (engine rounds consume inputs).
func clone(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}
