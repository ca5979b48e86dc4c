package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"znn"
	"znn/internal/chaos"
	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

// generation is one compiled model serving traffic: an immutable network
// plus a reference count of the requests running on it. Hot reload swaps
// the server's generation pointer atomically; the old generation keeps
// serving every round that already landed on it and is closed only after
// the last such request releases its reference — in-flight rounds drain on
// the old weights, new requests land on the new ones, and no request ever
// sees a mixture.
type generation struct {
	nw       *znn.Network
	id       int64
	source   string
	loadedAt time.Time
	wg       sync.WaitGroup
}

// server holds the serving generation, the in-flight round limiter and
// the admission-control state. Each HTTP request runs one forward-only
// round; the semaphore bounds how many rounds are admitted to the
// scheduler at once, and the queue-depth threshold sheds load with 429 +
// Retry-After before requests queue to death.
type server struct {
	genMu sync.RWMutex
	gen   *generation

	workers int
	sem     chan struct{}
	start   time.Time
	maxBody int64

	// Admission control. maxQueue bounds requests inside the server
	// (queued + running); beyond it new requests shed with 429.
	// defaultDeadline, when > 0, applies to requests without an
	// X-Deadline-Ms header.
	maxQueue        int
	defaultDeadline time.Duration

	// reloadPath is the default checkpoint path for POST /reload bodies
	// that don't name one (the -checkpoint flag value).
	reloadPath string
	// planned/memBudget/maxK mirror the -plan/-mem-budget/-max-batch
	// flags: reloads then recompile under the same execution-plan regime
	// as the startup build, and /healthz + /stats surface the budget and
	// the active plan.
	planned   bool
	memBudget int64
	maxK      int
	reloadMu  sync.Mutex   // serializes reloads
	reloading atomic.Bool  // surfaced in /healthz while a reload compiles
	reloads   atomic.Int64 // completed reloads
	lastErr   atomic.Value // string: last reload failure, "" after success

	// Cube jobs: whole-volume streaming (tiled) inference submitted as
	// upload → start → progress → download. Jobs ride the same generation
	// refcounts as requests (a running job delays its generation's close
	// across hot reloads) and their own admission bound.
	cubeMu       sync.Mutex
	cubeJobs     map[string]*cubeJob
	cubeSeq      int64
	maxCubeJobs  int           // stored unfinished jobs; past it new submissions shed 429
	maxCubeBytes int64         // input volume byte cap per job
	cubeRun      chan struct{} // serializes running cube streams

	cubeDone          atomic.Int64 // jobs finished successfully
	cubeFailed        atomic.Int64 // jobs that errored while streaming
	cubeBlocksDone    atomic.Int64 // blocks stitched across all jobs
	cubeBlocksTotal   atomic.Int64 // blocks planned across all started jobs
	cubeBytesStitched atomic.Int64 // output bytes stitched across all jobs

	served    atomic.Int64 // completed inference requests
	rejected  atomic.Int64 // malformed requests
	shed      atomic.Int64 // requests rejected 429 at admission
	expired   atomic.Int64 // requests that missed their deadline
	requests  atomic.Int64 // requests currently in the server (queued or running)
	inferNsEW atomic.Int64 // exponentially weighted request latency (ns)
}

// errDeadlineExpired is returned to a request whose deadline passed while
// it waited for a round slot. The handler maps it to 504 and the expired
// counter.
var errDeadlineExpired = errors.New("request deadline expired while queued")

// newServer assembles the serving state around a loaded network
// (generation 1). maxQueue and defaultDeadline start at their defaults
// (4× the request capacity, no deadline); main overrides them from flags.
func newServer(nw *znn.Network, inflight int) *server {
	s := &server{
		gen:     &generation{nw: nw, id: 1, source: "startup", loadedAt: time.Now()},
		workers: nw.Workers(),
		sem:     make(chan struct{}, inflight),
		start:   time.Now(),
	}
	// Bound the request body well above the JSON encoding of the expected
	// input volumes (~25 bytes per float64 voxel, ×2 headroom, per input
	// node) so a hostile POST cannot buffer gigabytes.
	s.maxBody = int64(nw.InputShape().Volume())*int64(nw.NumInputs())*25*2 + 1<<20
	s.maxQueue = 4 * inflight
	s.lastErr.Store("")
	s.cubeJobs = make(map[string]*cubeJob)
	s.cubeRun = make(chan struct{}, 1)
	s.maxCubeJobs = 4
	s.maxCubeBytes = 1 << 30
	return s
}

// current returns the serving generation without taking a reference —
// metadata reads only. Use acquire for anything that runs a round.
func (s *server) current() *generation {
	s.genMu.RLock()
	defer s.genMu.RUnlock()
	return s.gen
}

// acquire returns the serving generation with a reference held; the caller
// must release() it when its round completes. The reference is what delays
// the old generation's Close during hot reload until its in-flight rounds
// drain.
func (s *server) acquire() *generation {
	s.genMu.RLock()
	g := s.gen
	g.wg.Add(1)
	s.genMu.RUnlock()
	return g
}

func (g *generation) release() { g.wg.Done() }

// inferDirect is the request path: wait for an in-flight round slot
// (bounded by the request deadline), then run one forward-only round on
// the current generation and report which generation served it.
func (s *server) inferDirect(inputs []*znn.Tensor, deadline time.Time) ([]*znn.Tensor, int64, error) {
	if deadline.IsZero() {
		s.sem <- struct{}{}
	} else {
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, 0, errDeadlineExpired
		}
		timer := time.NewTimer(wait)
		select {
		case s.sem <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			return nil, 0, errDeadlineExpired
		}
	}
	defer func() { <-s.sem }()
	g := s.acquire()
	defer g.release()
	outs, err := g.nw.Infer(inputs...)
	return outs, g.id, err
}

// retryAfterSecs derives the Retry-After hint for a shed request from the
// EW latency gauge: the queue is ~depth requests deep, the server retires
// ~capacity of them per EW-latency period, so the backlog clears in about
// depth/capacity periods. Clamped to [1, 60] seconds.
func (s *server) retryAfterSecs() int {
	ew := time.Duration(s.inferNsEW.Load())
	if ew <= 0 {
		ew = 250 * time.Millisecond
	}
	capacity := cap(s.sem)
	if capacity < 1 {
		capacity = 1
	}
	depth := int(s.requests.Load())
	periods := depth/capacity + 1
	secs := int(math.Ceil(ew.Seconds() * float64(periods)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// volume is the wire form of one image volume.
type volume struct {
	Shape []int     `json:"shape,omitempty"`
	Data  []float64 `json:"data"`
}

// inferRequest carries either one volume (Data/Shape at the top level) or
// several input volumes for multi-input networks.
type inferRequest struct {
	volume
	Inputs []volume `json:"inputs,omitempty"`
}

type inferResponse struct {
	Outputs    []volume `json:"outputs"`
	Generation int64    `json:"generation"`
	Ms         float64  `json:"ms"`
}

func shapeOf(s tensor.Shape) []int { return []int{s.X, s.Y, s.Z} }

// toTensor validates one wire volume against the expected shape.
func toTensor(v volume, want tensor.Shape) (*znn.Tensor, error) {
	got := want
	if len(v.Shape) > 0 {
		if len(v.Shape) != 3 {
			return nil, fmt.Errorf("shape must have 3 extents, got %d", len(v.Shape))
		}
		got = tensor.Shape{X: v.Shape[0], Y: v.Shape[1], Z: v.Shape[2]}
	}
	if got != want {
		return nil, fmt.Errorf("input shape %v, want %v", got, want)
	}
	if len(v.Data) != want.Volume() {
		return nil, fmt.Errorf("data length %d, want %d for shape %v", len(v.Data), want.Volume(), want)
	}
	t := znn.NewTensor(want)
	copy(t.Data, v.Data)
	return t, nil
}

// deadlineOf resolves a request's deadline: the X-Deadline-Ms header wins,
// then -default-deadline, else none (zero time).
func (s *server) deadlineOf(r *http.Request) (time.Time, error) {
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseFloat(h, 64)
		if err != nil || ms <= 0 {
			return time.Time{}, fmt.Errorf("X-Deadline-Ms: want a positive number of milliseconds, got %q", h)
		}
		return time.Now().Add(time.Duration(ms * float64(time.Millisecond))), nil
	}
	if s.defaultDeadline > 0 {
		return time.Now().Add(s.defaultDeadline), nil
	}
	return time.Time{}, nil
}

func (s *server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req inferRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	deadline, err := s.deadlineOf(r)
	if err != nil {
		s.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	vols := req.Inputs
	if len(vols) == 0 {
		vols = []volume{req.volume}
	}
	nw := s.current().nw
	if len(vols) != nw.NumInputs() {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("got %d input volumes, network has %d input nodes",
			len(vols), nw.NumInputs()), http.StatusBadRequest)
		return
	}
	want := nw.InputShape()
	inputs := make([]*znn.Tensor, len(vols))
	for i, v := range vols {
		t, err := toTensor(v, want)
		if err != nil {
			s.rejected.Add(1)
			http.Error(w, fmt.Sprintf("input %d: %v", i, err), http.StatusBadRequest)
			return
		}
		inputs[i] = t
	}

	// Admission control: shed before queueing when the server is already
	// holding more requests than the queue threshold — a fast 429 with a
	// Retry-After derived from the measured latency beats a slow timeout.
	depth := s.requests.Add(1)
	defer s.requests.Add(-1)
	if s.maxQueue > 0 && int(depth) > s.maxQueue {
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		http.Error(w, fmt.Sprintf("server saturated (%d requests queued, threshold %d); retry later",
			depth, s.maxQueue), http.StatusTooManyRequests)
		return
	}

	start := time.Now()
	outs, gen, err := s.inferDirect(inputs, deadline)
	elapsed := time.Since(start)
	if errors.Is(err, errDeadlineExpired) {
		s.expired.Add(1)
		http.Error(w, "deadline expired while queued; raise X-Deadline-Ms or retry later",
			http.StatusGatewayTimeout)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.served.Add(1)
	ewmaUpdate(&s.inferNsEW, elapsed.Nanoseconds())

	resp := inferResponse{Generation: gen, Ms: float64(elapsed.Nanoseconds()) / 1e6}
	for _, o := range outs {
		resp.Outputs = append(resp.Outputs, volume{Shape: shapeOf(o.S), Data: o.Data})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// reloadRequest is the optional POST /reload body.
type reloadRequest struct {
	Checkpoint string `json:"checkpoint,omitempty"`
}

// handleReload hot-swaps the serving weights: compile the named checkpoint
// (default: the -checkpoint flag path) into a fresh network, verify it can
// transparently replace the serving generation (same geometry and
// precision — typed errors otherwise), then atomically swap the generation
// pointer. In-flight rounds drain on the old generation, which closes
// itself after the last one releases; concurrent requests are never
// failed, delayed or mixed across generations by a reload. Any failure
// leaves the current generation serving untouched.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req reloadRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
	}
	path := req.Checkpoint
	if path == "" {
		path = s.reloadPath
	}
	if path == "" {
		http.Error(w, "no checkpoint path: POST {\"checkpoint\": ...} or start with -checkpoint", http.StatusBadRequest)
		return
	}
	if !s.reloadMu.TryLock() {
		http.Error(w, "reload already in progress", http.StatusConflict)
		return
	}
	defer s.reloadMu.Unlock()
	s.reloading.Store(true)
	defer s.reloading.Store(false)

	fail := func(status int, err error) {
		s.lastErr.Store(err.Error())
		http.Error(w, err.Error(), status)
	}
	// The "reload.compile" chaos point stands in for any compile-stage
	// failure (unreadable file, OOM building plans); tests arm it to prove
	// a failed reload leaves the old generation serving.
	if err := chaos.Inject("reload.compile"); err != nil {
		fail(http.StatusInternalServerError, fmt.Errorf("compiling %s: %w", path, err))
		return
	}
	var next *znn.Network
	var err error
	if s.planned {
		// Recompute the plan for the new weights (kernel density may have
		// changed) under the same budget and batch-width cap as startup.
		next, err = znn.LoadFilePlanned(path, s.workers, s.memBudget, s.maxK)
	} else {
		next, err = znn.LoadFile(path, s.workers)
	}
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, znn.ErrCheckpointCorrupt), errors.Is(err, znn.ErrCheckpointFormat),
			errors.Is(err, znn.ErrCheckpointSpec), errors.Is(err, znn.ErrCheckpointGeometry):
			status = http.StatusUnprocessableEntity
		}
		fail(status, err)
		return
	}
	cur := s.current()
	if err := cur.nw.ServingCompatible(next); err != nil {
		next.Close()
		fail(http.StatusConflict, err)
		return
	}

	g := &generation{nw: next, id: cur.id + 1, source: path, loadedAt: time.Now()}
	s.genMu.Lock()
	old := s.gen
	s.gen = g
	s.genMu.Unlock()
	s.reloads.Add(1)
	s.lastErr.Store("")
	// Drain the old generation in the background: its in-flight rounds
	// finish on the old weights, then the old scheduler shuts down.
	go func() {
		old.wg.Wait()
		old.nw.Close()
	}()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation": g.id,
		"checkpoint": path,
		"params":     next.NumParams(),
		"spec":       next.Spec(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g := s.current()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok":   true,
		"spec": g.nw.Spec(),
		// Execution-plan regime: planned is true when the serving network
		// was compiled from a whole-network plan; mem_budget is the pooled
		// spectrum byte budget it was planned under (0 = unconstrained).
		"planned":       s.planned,
		"mem_budget":    s.memBudget,
		"input_shape":   shapeOf(g.nw.InputShape()),
		"output_shape":  shapeOf(g.nw.OutputShape()),
		"input_volume":  g.nw.InputShape().Volume(),
		"output_volume": g.nw.OutputShape().Volume(),
		"params":        g.nw.NumParams(),
		// Model generation and reload state: generation starts at 1 and
		// bumps on every successful POST /reload; reloading is true while
		// a reload is compiling (the old generation still serves).
		"generation":        g.id,
		"generation_source": g.source,
		"loaded_at":         g.loadedAt.UTC().Format(time.RFC3339),
		"reloading":         s.reloading.Load(),
		"reloads":           s.reloads.Load(),
		"last_reload_error": s.lastErr.Load(),
	})
}

// poolStats is the wire form of one mempool gauge set.
type poolStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Puts          int64 `json:"puts"`
	LiveBytes     int64 `json:"live_bytes"`
	PeakLiveBytes int64 `json:"peak_live_bytes"`
	PoolBytes     int64 `json:"pool_bytes"`
}

func poolWire(st mempool.Stats) poolStats {
	return poolStats{
		Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
		LiveBytes: st.LiveBytes, PeakLiveBytes: st.PeakLiveBytes, PoolBytes: st.PoolBytes,
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.current()
	sch := g.nw.Stats()
	stats := map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"served":   s.served.Load(),
		"rejected": s.rejected.Load(),
		// Admission control: shed counts 429s, expired counts requests
		// whose deadline passed while waiting for a round slot, max_queue
		// is the shed threshold.
		"shed":      s.shed.Load(),
		"expired":   s.expired.Load(),
		"max_queue": s.maxQueue,
		// inflight counts rounds holding a semaphore slot (≤ max_inflight);
		// requests_inflight counts HTTP requests inside the server,
		// including those waiting for a slot — the difference is the queue
		// depth.
		"inflight":          len(s.sem),
		"requests_inflight": s.requests.Load(),
		"infer_ms_ew":       float64(s.inferNsEW.Load()) / 1e6,
		"max_inflight":      cap(s.sem),
		"generation":        g.id,
		"reloads":           s.reloads.Load(),
		"sched_executed":    sch.Executed,
		"sched_forced":      sch.ForcedInline + sch.ForcedClaimed + sch.ForcedAttached,
		"pool_images":       poolWire(mempool.Images.Stats()),
		"pool_spectra":      poolWire(mempool.Spectra.Stats()),
		"pool_spectra_f32":  poolWire(mempool.Spectra32.Stats()),
		// Tiler job counters: cube jobs stream whole volumes through
		// overlapping blocks; blocks done/total and bytes stitched aggregate
		// across every job this process has started.
		"cube_jobs_active":    s.cubeActive(),
		"cube_jobs_done":      s.cubeDone.Load(),
		"cube_jobs_failed":    s.cubeFailed.Load(),
		"cube_blocks_done":    s.cubeBlocksDone.Load(),
		"cube_blocks_total":   s.cubeBlocksTotal.Load(),
		"cube_bytes_stitched": s.cubeBytesStitched.Load(),
		// Which FFT kernel set this process dispatched to ("avx2",
		// "scalar", or "purego") and how many kernel calls it has made —
		// the first thing to check when two hosts disagree on infer_ms_ew.
		"kernel_path":       fft.KernelPath(),
		"kernel_dispatches": fft.KernelDispatches(),
	}
	if s.defaultDeadline > 0 {
		stats["default_deadline_ms"] = s.defaultDeadline.Milliseconds()
	}
	// The active execution plan, when the serving generation was compiled
	// from one: per-layer (method, precision) assignments plus the planner's
	// cost and pooled-byte estimates (see internal/plan Stats).
	if p := g.nw.Plan(); p != nil {
		stats["plan"] = p.Stats()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// shutdown drains the serving state after the HTTP server has stopped
// accepting: wait (bounded) for rounds that already landed on the current
// generation, then close its engine. Old generations from reloads close
// themselves once their refs drop.
func (s *server) shutdown(timeout time.Duration) (drained bool) {
	g := s.current()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		return false
	}
	drained, _ = g.nw.CloseTimeout(timeout)
	return drained
}

// ewmaUpdate folds a sample into an exponentially weighted gauge (7/8 old
// + 1/8 new) with CAS so concurrent samples don't lose each other.
func ewmaUpdate(g *atomic.Int64, sample int64) {
	for {
		old := g.Load()
		next := old - old/8 + sample/8
		if old == 0 {
			next = sample
		}
		if g.CompareAndSwap(old, next) {
			return
		}
	}
}
