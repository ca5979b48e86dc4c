package main

import (
	"fmt"
	"math/rand"
	"time"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
	"znn/internal/train"
)

// benchNet describes one scalability benchmark network (Section VIII).
type benchNet struct {
	name   string
	spec   string
	dims   int
	out    int
	method conv.Method
	widths []int
}

// paperNets returns the Section VIII benchmark networks, scaled down by
// default so the sweep finishes on small hosts; -paper-scale restores the
// paper's parameters (2D: 11² kernels, out 48², FFT; 3D: 3³ kernels,
// out 12³, direct; widths 5–120).
func paperNets(cfg config) []benchNet {
	if cfg.paperScale {
		return []benchNet{
			{
				name: "2D (CTMCTMCTCTCTCT, k=11², out=48², FFT conv)",
				spec: "C11-Trelu-M2-C11-Trelu-M2-C11-Trelu-C11-Trelu-C11-Trelu-C11-Trelu",
				dims: 2, out: 48, method: conv.FFT,
				widths: []int{5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120},
			},
			{
				name: "3D (CTMCTMCTCT, k=3³, out=12³, direct conv)",
				spec: "C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu",
				dims: 3, out: 12, method: conv.Direct,
				widths: []int{5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120},
			},
		}
	}
	return []benchNet{
		{
			name: "2D scaled (CTMCTMCTCT, k=7², out=24², FFT conv)",
			spec: "C7-Trelu-M2-C7-Trelu-M2-C7-Trelu-C7-Trelu",
			dims: 2, out: 24, method: conv.FFT,
			widths: []int{2, 4, 8, 16},
		},
		{
			name: "3D scaled (CTMCTMCTCT, k=3³, out=8³, direct conv)",
			spec: "C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu",
			dims: 3, out: 8, method: conv.Direct,
			widths: []int{2, 4, 8, 16},
		},
	}
}

// buildBench constructs a network and its training data for measurement.
func buildBench(b benchNet, width int, seed int64) (*net.Network, []*tensor.Tensor, []*tensor.Tensor, error) {
	nw, err := net.Build(net.MustParse(b.spec), net.BuildOptions{
		Width: width, OutWidth: width, Dims: b.dims, OutputExtent: b.out,
		Method: b.method, Memoize: b.method == conv.FFT,
		Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	des := make([]*tensor.Tensor, width)
	for i := range des {
		des[i] = tensor.RandomUniform(rng, nw.OutputShape(), 0, 1)
	}
	return nw, in, des, nil
}

// timeRounds returns the mean seconds of round over cfg.rounds timed calls
// (defaultRounds when unset) after warmup untimed ones, each call on fresh
// copies of in and des (rounds consume their inputs).
func timeRounds(cfg config, warmup, defaultRounds int, in, des []*tensor.Tensor, round func(in, des []*tensor.Tensor) (float64, error)) float64 {
	rounds := cfg.rounds
	if rounds == 0 {
		rounds = defaultRounds
	}
	run := func() {
		if _, err := round(clone(in), clone(des)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < warmup; i++ {
		run()
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		run()
	}
	return time.Since(start).Seconds() / float64(rounds)
}

// measureSerial times one serial gradient round (the T₁ baseline).
func measureSerial(cfg config, b benchNet, width int) (float64, error) {
	nw, in, des, err := buildBench(b, width, 7)
	if err != nil {
		return 0, err
	}
	return timeRounds(cfg, 1, 3, in, des, func(in, des []*tensor.Tensor) (float64, error) {
		return nw.RoundSerial(in, des, ops.SquaredLoss{}, graph.UpdateOpts{Eta: 1e-6})
	}), nil
}

// measureParallel times one engine round with the given worker count.
func measureParallel(cfg config, b benchNet, width, workers int) (float64, error) {
	nw, in, des, err := buildBench(b, width, 7)
	if err != nil {
		return 0, err
	}
	en, err := train.NewEngine(nw.G, train.Config{Workers: workers, Eta: 1e-6})
	if err != nil {
		return 0, err
	}
	defer en.Close()
	return timeRounds(cfg, cfg.warmup, 5, in, des, en.Round), nil
}

// fig5 measures speedup versus worker count for each width (the paper's
// per-machine panels; 5 warm-up rounds then timed rounds, Section VIII).
func fig5(cfg config) {
	header("Fig. 5 — measured speedup vs worker threads")
	workerCounts := []int{1}
	for w := 2; w <= 2*cfg.workers; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	for _, b := range paperNets(cfg) {
		fmt.Printf("\n%s\n", b.name)
		fmt.Printf("%8s", "width")
		for _, wk := range workerCounts {
			fmt.Printf("  w=%-6d", wk)
		}
		fmt.Printf("  (serial T1 ms)\n")
		for _, width := range b.widths {
			t1, err := measureSerial(cfg, b, width)
			if err != nil {
				fmt.Printf("%8d  error: %v\n", width, err)
				continue
			}
			fmt.Printf("%8d", width)
			for _, wk := range workerCounts {
				tp, err := measureParallel(cfg, b, width, wk)
				if err != nil {
					fmt.Printf("  %-8s", "err")
					continue
				}
				fmt.Printf("  %-8.2f", t1/tp)
			}
			fmt.Printf("  (%.1f)\n", t1*1000)
		}
	}
	fmt.Println("\npaper: near-linear until workers = cores, slower gains into hyperthreads;")
	fmt.Printf("this host has %d logical CPUs, so measured speedup saturates there.\n", cfg.workers)
}

// fig6 and fig7 report the maximal achieved speedup per width (2D and 3D).
func fig6(cfg config) { figMaxSpeedup(cfg, 0, "Fig. 6 — max speedup vs width (2D)") }
func fig7(cfg config) { figMaxSpeedup(cfg, 1, "Fig. 7 — max speedup vs width (3D)") }

func figMaxSpeedup(cfg config, which int, title string) {
	header(title)
	b := paperNets(cfg)[which]
	fmt.Printf("%s, workers=%d\n\n", b.name, cfg.workers)
	fmt.Printf("%8s %12s %12s %10s\n", "width", "serial ms", "parallel ms", "speedup")
	for _, width := range b.widths {
		t1, err := measureSerial(cfg, b, width)
		if err != nil {
			fmt.Printf("%8d error: %v\n", width, err)
			continue
		}
		tp, err := measureParallel(cfg, b, width, cfg.workers)
		if err != nil {
			fmt.Printf("%8d error: %v\n", width, err)
			continue
		}
		fmt.Printf("%8d %12.1f %12.1f %10.2f\n", width, t1*1000, tp*1000, t1/tp)
	}
	fmt.Println("\npaper: speedup rises with width toward the core count (≥30-wide for")
	fmt.Println("multicore, ≥80 for Xeon Phi); the curve shape reproduces at any scale.")
}
