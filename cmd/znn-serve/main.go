// znn-serve is the inference-serving front-end: it loads (or builds) a
// network once and serves forward passes over HTTP, keeping up to
// -inflight rounds concurrently in flight on the shared scheduler — the
// throughput regime of ZNNi, where many volumes share one set of kernel
// spectra, plans and memory pools instead of serializing forward passes.
//
// Queued requests are additionally coalesced into fused K-wide rounds: up
// to -max-batch requests (waiting at most -batch-delay microseconds)
// dispatch as ONE round that sweeps all K volumes at each layer, so the
// layer's kernel spectra stream through cache once per batch instead of
// once per request. -batch-delay 0 (the default) is greedy: a lone request
// on an idle server dispatches immediately, and batches form exactly when
// load makes requests queue. -max-batch 1 disables batching entirely.
//
// The process is built to survive production churn:
//
//   - Hot reload: POST /reload compiles a checkpoint into a fresh model
//     generation and atomically swaps it in; in-flight rounds drain on the
//     old generation (no request fails, delays, or mixes weights), and
//     /healthz reports the generation counter and reload state.
//   - Admission control: requests carry deadlines (X-Deadline-Ms header or
//     -default-deadline); a deadline that expires while queued frees the
//     request without occupying a batch slot (504). Past -max-queue
//     requests in the server, new ones shed immediately with 429 and a
//     Retry-After derived from the EW latency gauge.
//   - Graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
//     rounds within -drain-timeout, and exits 0.
//
// Usage:
//
//	znn-serve -checkpoint model.znn [-addr :8080] [-inflight 2N] [-workers N]
//	          [-max-batch K] [-batch-delay µs] [-max-queue N]
//	          [-default-deadline 0] [-drain-timeout 30s]
//	          [-plan] [-mem-budget bytes]
//
// -plan (or a nonzero -mem-budget) compiles the network from a
// whole-network execution plan: the planner picks each conv layer's
// (method, precision) and the fused batch width K so that estimated
// throughput is maximal while the pooled spectrum footprint of one fused
// round stays under -mem-budget (0 = unconstrained). The plan's K cap is
// -max-batch, so the estimate covers the widest round the batcher can
// dispatch; /stats reports the active plan and /healthz its budget.
//
//	znn-serve -spec C3-Trelu-C1 -width 4 -out 8    # random weights (smoke/demo)
//
// Endpoints:
//
//	GET  /healthz  liveness, input/output geometry, model generation + reload state
//	POST /infer    {"data":[...]} or {"inputs":[[...],...]} → outputs
//	POST /reload   {"checkpoint": path}? → hot-swap weights (default: -checkpoint)
//	GET  /stats    scheduler, mempool, serving, batcher, admission and cube-job counters
//
// Volumes too large to POST as one JSON body go through the cube-job API
// (see cubejob.go): POST /cube submits a whole-volume streaming job, raw
// binary chunks upload with PUT /cube/{id}/data, POST /cube/{id}/start
// streams it through the overlap-tiled executor on the serving generation,
// GET /cube/{id} reports blocks done/total and bytes stitched, and
// GET /cube/{id}/output/{i} downloads the stitched raw outputs. At most
// -max-cube-jobs jobs may be unfinished at once and one streams at a time.
//
// /infer accepts one flat float64 array per input volume in x-fastest
// (x, then y, then z) order; "shape" is optional and defaults to the
// network's input shape. The response mirrors the layout: one flat array
// plus shape per output volume, and names the model generation that served
// the request.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"znn"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	checkpoint := flag.String("checkpoint", "", "checkpoint file written by znn-train (optional; also the default /reload source)")
	spec := flag.String("spec", "C3-Trelu-C1", "layer spec when no checkpoint is given")
	width := flag.Int("width", 2, "hidden layer width when no checkpoint is given")
	out := flag.Int("out", 8, "output patch extent when no checkpoint is given")
	dims := flag.Int("dims", 3, "2 or 3 dimensional images")
	workers := flag.Int("workers", 0, "scheduler workers (0 = all CPUs)")
	inflight := flag.Int("inflight", 0, "max concurrent inference rounds (0 = 2×workers)")
	maxBatch := flag.Int("max-batch", 4, "max requests fused into one K-wide round (1 = no batching)")
	batchDelay := flag.Int("batch-delay", 0, "microseconds the batcher waits for a fuller batch (0 = dispatch greedily, no added latency)")
	maxQueue := flag.Int("max-queue", 0, "shed 429 past this many requests in the server (0 = 4×inflight×max-batch, -1 = never shed)")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline for requests without X-Deadline-Ms (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget for in-flight rounds")
	f32 := flag.Bool("f32", false, "run the spectral pipeline in float32/complex64")
	planned := flag.Bool("plan", false, "compile from a whole-network execution plan (per-layer method/precision under -mem-budget)")
	memBudget := flag.Int64("mem-budget", 0, "pooled spectrum byte budget for the execution plan (0 = unconstrained; implies -plan)")
	seed := flag.Int64("seed", 1, "initialization seed when no checkpoint is given")
	maxCubeJobs := flag.Int("max-cube-jobs", 4, "shed 429 past this many unfinished cube jobs (0 = unbounded)")
	maxCubeBytes := flag.Int64("max-cube-bytes", 1<<30, "input byte cap per cube job volume")
	flag.Parse()

	if *workers < 1 {
		*workers = runtime.NumCPU()
	}
	if *inflight < 1 {
		// Oversubscribe rounds 2× over workers: a single small round
		// exposes few tasks, so extra rounds in flight keep workers busy
		// while others finish their inverse transforms.
		*inflight = 2 * *workers
	}

	usePlan := *planned || *memBudget > 0
	var nw *znn.Network
	var err error
	if *checkpoint != "" {
		if usePlan {
			// PlanMaxK = -max-batch: the plan's byte estimate must cover the
			// widest fused round the batcher can dispatch.
			nw, err = znn.LoadFilePlanned(*checkpoint, *workers, *memBudget, *maxBatch)
		} else {
			nw, err = znn.LoadFile(*checkpoint, *workers)
		}
		if err != nil {
			log.Fatal(znn.CheckpointHint(err))
		}
	} else {
		nw, err = znn.NewNetwork(*spec, znn.Config{
			Width:       *width,
			OutputPatch: *out,
			Dims:        *dims,
			Workers:     *workers,
			Float32:     *f32,
			Seed:        *seed,
			Planned:     *planned,
			MemBudget:   *memBudget,
			PlanMaxK:    *maxBatch,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	s := newServer(nw, *inflight, *maxBatch, time.Duration(*batchDelay)*time.Microsecond)
	s.reloadPath = *checkpoint
	s.defaultDeadline = *defaultDeadline
	s.planned = usePlan
	s.memBudget = *memBudget
	switch {
	case *maxQueue > 0:
		s.maxQueue = *maxQueue
	case *maxQueue < 0:
		s.maxQueue = 0 // never shed
	}
	s.maxCubeJobs = *maxCubeJobs
	s.maxCubeBytes = *maxCubeBytes
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/stats", s.handleStats)
	s.cubeRoutes(mux)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute, // large volumes over slow links
		WriteTimeout:      5 * time.Minute, // includes queueing for a round slot
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("znn-serve: %v", nw)
	if p := nw.Plan(); p != nil {
		log.Printf("znn-serve: execution plan (budget=%d):\n%s", *memBudget, p.Table())
	}
	log.Printf("znn-serve: listening on %s (workers=%d, inflight=%d, max-batch=%d, batch-delay=%s, max-queue=%d, default-deadline=%s)",
		*addr, *workers, *inflight, *maxBatch, time.Duration(*batchDelay)*time.Microsecond, s.maxQueue, *defaultDeadline)

	// Graceful shutdown: SIGINT/SIGTERM stops the listener, in-flight
	// requests finish within -drain-timeout, then the engine drains and
	// the process exits 0. A second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills us
	log.Printf("znn-serve: signal received, draining in-flight rounds (timeout %s)", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("znn-serve: forced close after drain timeout: %v", err)
		srv.Close()
	}
	if s.shutdown(*drainTimeout) {
		log.Printf("znn-serve: drained %d served requests cleanly, exiting", s.served.Load())
	} else {
		log.Printf("znn-serve: drain timed out after %s, exiting anyway", *drainTimeout)
	}
}
