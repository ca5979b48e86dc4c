// znn-train trains a spec'd ConvNet on synthetic data and reports per-round
// loss and timing — the command-line face of the library.
//
// Usage:
//
//	znn-train [-spec C3-Trelu-M2-C3-Trelu] [-width 8] [-out 8] [-dims 3]
//	          [-workers N] [-rounds 200] [-eta 0.5] [-momentum 0.9]
//	          [-loss mean-bce] [-data boundary|texture|random]
//	          [-conv auto|direct|fft] [-memoize] [-sliding]
//	          [-pipeline]
//	          [-checkpoint file] [-resume file]
//
// -checkpoint writes crash-safely (temp file + fsync + atomic rename), so a
// kill mid-save leaves the previous checkpoint intact. -resume restores a
// checkpoint and continues training it (spec/width flags are then ignored —
// the network geometry comes from the file).
//
// Training runs on one session path; -pipeline only picks how far the loop
// submits ahead of the round it waits (the lag). The default lag 0 is
// strict round-by-round training: each round is waited before the next is
// submitted. -pipeline sets lag 1: sample N+1 is generated on a background
// goroutine while round N computes, and round N+1's forward work is
// admitted edge by edge as round N's backward work drains (the per-edge
// fencing of internal/train). Every round logs its phase split — data_ms
// (blocked fetching the sample), compute_ms (blocked in the round),
// drain_ms (blocked applying the update tail) — so the pipeline's overlap
// is observable per round, not just inferred from totals.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"znn"
	"znn/internal/data"
)

func main() {
	spec := flag.String("spec", "C3-Ttanh-P2-C3-Ttanh-C1-Tlogistic", "layer spec")
	width := flag.Int("width", 8, "hidden conv layer width")
	out := flag.Int("out", 8, "output patch extent")
	dims := flag.Int("dims", 3, "2 or 3 dimensional images")
	workers := flag.Int("workers", 0, "scheduler workers (0 = all CPUs)")
	rounds := flag.Int("rounds", 200, "training rounds")
	eta := flag.Float64("eta", 0.5, "learning rate")
	momentum := flag.Float64("momentum", 0.9, "momentum coefficient")
	lossName := flag.String("loss", "mean-bce", "loss: squared, bce, softmax, mean-*")
	dataset := flag.String("data", "boundary", "data: boundary, texture, random")
	convMode := flag.String("conv", "auto", "conv: auto (per-layer direct/FFT by the planner's training-round cost), direct, fft; -plan overrides it")
	memoize := flag.Bool("memoize", true, "enable FFT memoization")
	f32 := flag.Bool("f32", false, "run the spectral pipeline in float32/complex64")
	planned := flag.Bool("plan", false, "compile from a whole-network execution plan (per-layer method/precision under -mem-budget)")
	memBudget := flag.Int64("mem-budget", 0, "pooled spectrum byte budget for the execution plan (0 = unconstrained; implies -plan)")
	planMaxK := flag.Int("plan-max-k", 0, "planner's fused batch width cap (0 = default)")
	pipeline := flag.Bool("pipeline", false, "overlap training rounds: keep one round submitted ahead (prefetched data + per-edge update fencing)")
	sliding := flag.Bool("sliding", true, "convert pooling to sliding-window filtering")
	checkpoint := flag.String("checkpoint", "", "write a checkpoint here when done (crash-safe: temp file + rename)")
	resume := flag.String("resume", "", "resume training from this checkpoint (overrides -spec/-width/-out/-dims/-f32)")
	seed := flag.Int64("seed", 1, "initialization seed")
	flag.Parse()

	if *workers < 1 {
		*workers = runtime.NumCPU()
	}

	var cm znn.ConvMode
	switch *convMode {
	case "auto":
		cm = znn.Autotune
	case "direct":
		cm = znn.ForceDirect
	case "fft":
		cm = znn.ForceFFT
	default:
		log.Fatalf("unknown conv mode %q", *convMode)
	}

	var nw *znn.Network
	var err error
	if *resume != "" {
		if *planned || *memBudget > 0 {
			nw, err = znn.LoadFilePlanned(*resume, *workers, *memBudget, *planMaxK)
		} else {
			nw, err = znn.LoadFile(*resume, *workers)
		}
		if err != nil {
			log.Fatal(znn.CheckpointHint(err))
		}
		fmt.Printf("resumed from %s\n", *resume)
	} else {
		nw, err = znn.NewNetwork(*spec, znn.Config{
			Width:         *width,
			OutputPatch:   *out,
			Dims:          *dims,
			Workers:       *workers,
			Eta:           *eta,
			Momentum:      *momentum,
			Loss:          *lossName,
			Conv:          cm,
			Memoize:       *memoize,
			Float32:       *f32,
			SlidingWindow: *sliding,
			Seed:          *seed,
			Planned:       *planned,
			MemBudget:     *memBudget,
			PlanMaxK:      *planMaxK,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	defer nw.Close()

	fmt.Printf("%v\n", nw)
	fmt.Printf("spec: %s | conv per layer: %v | workers: %d\n",
		nw.Spec(), nw.LayerMethods(), *workers)
	if p := nw.Plan(); p != nil {
		fmt.Print(p.Table())
	}

	var provider data.Provider
	switch *dataset {
	case "boundary":
		bp := data.NewBoundaryProvider(nw.InputShape(), nw.OutputShape(), *seed)
		bp.SetCentered(true)
		provider = bp
	case "texture":
		provider = data.NewTextureProviderCropped(nw.InputShape(), 3, nw.OutputShape(), *seed)
	case "random":
		provider = data.NewRandomProvider(nw.InputShape(), nw.OutputShape(), 1, *seed)
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	// lag is how many rounds the loop keeps submitted ahead of the one it
	// waits: 0 is strict round-by-round training, 1 overlaps consecutive
	// rounds. Same session, same per-edge path either way.
	lag, mode := 0, "strict"
	if *pipeline {
		lag, mode = 1, "pipelined"
	}
	fmt.Printf("training mode: %s\n", mode)

	// The prefetcher generates sample N+1 on a background goroutine while
	// round N computes; the provider is called sequentially from that one
	// goroutine, so the sample sequence is identical to the bare provider's
	// in both modes.
	pf := data.NewPrefetcher(provider, 2)
	defer pf.Close()

	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	start := time.Now()
	var loss float64
	var totData, totCompute, totDrain float64
	every := max(1, *rounds/10)

	// submitted is one round in flight: compute_ms is the time the loop
	// actually blocked on it (in Submit plus in Wait).
	type submitted struct {
		pr                *znn.PendingRound
		round             int
		dataMs, computeMs float64
	}
	tp := nw.TrainStart()
	settle := func(r submitted) {
		t := time.Now()
		l, err := r.pr.Wait()
		if err != nil {
			log.Fatal(err)
		}
		loss = l
		r.computeMs += ms(time.Since(t))
		totCompute += r.computeMs
		var drainMs float64
		if lag == 0 {
			// Nothing else is in flight: drain the round's update tail
			// explicitly (it is otherwise forced lazily by the next round's
			// forward pass) so the tail the pipeline hides is measured, not
			// folded into the next round's compute.
			t = time.Now()
			if err := nw.Drain(); err != nil {
				log.Fatal(err)
			}
			drainMs = ms(time.Since(t))
			totDrain += drainMs
		}
		if r.round == 1 || r.round%every == 0 {
			fmt.Printf("round %5d  loss %.6f  (%.1f ms/update, data_ms %.1f compute_ms %.1f drain_ms %.1f)\n",
				r.round, loss, ms(time.Since(start))/float64(r.round), r.dataMs, r.computeMs, drainMs)
		}
	}
	var pending []submitted // at most lag+1 rounds, oldest first
	for round := 1; round <= *rounds; round++ {
		t := time.Now()
		s := pf.Next()
		dataMs := ms(time.Since(t))
		totData += dataMs

		t = time.Now()
		pr, err := tp.Submit([]*znn.Tensor{s.Input}, []*znn.Tensor{s.Desired[0]})
		if err != nil {
			log.Fatal(err)
		}
		pending = append(pending, submitted{pr, round, dataMs, ms(time.Since(t))})
		if len(pending) > lag {
			settle(pending[0])
			pending = pending[1:]
		}
	}
	for _, r := range pending {
		settle(r)
	}
	if err := tp.Close(); err != nil {
		log.Fatal(err)
	}
	t := time.Now()
	if err := nw.Drain(); err != nil {
		log.Fatal(err)
	}
	totDrain += ms(time.Since(t))

	el := time.Since(start)
	n := float64(*rounds)
	fmt.Printf("\ntrained %d rounds in %v (%.1f ms/update, final loss %.6f)\n",
		*rounds, el.Round(time.Millisecond), el.Seconds()*1000/n, loss)
	fmt.Printf("phase totals (%s): data_ms %.1f  compute_ms %.1f  drain_ms %.1f  (per round %.2f/%.2f/%.2f)\n",
		mode, totData, totCompute, totDrain, totData/n, totCompute/n, totDrain/n)
	st := nw.Stats()
	fmt.Printf("scheduler: %d tasks, forced updates inline/stolen/attached = %d/%d/%d\n",
		st.Executed, st.ForcedInline, st.ForcedClaimed, st.ForcedAttached)

	if *checkpoint != "" {
		// SaveFile replaces the target atomically (temp + fsync + rename):
		// a crash mid-save never leaves a torn checkpoint behind.
		if err := nw.SaveFile(*checkpoint); err != nil {
			log.Fatal(znn.CheckpointHint(err))
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
}
