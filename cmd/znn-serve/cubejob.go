package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"znn"
	"znn/internal/tensor"
	"znn/internal/tile"
)

// Cube jobs are whole-volume streaming inference over HTTP: volumes too
// large to POST as one JSON body are submitted as a job, uploaded in raw
// binary chunks, streamed through the overlap-tiled executor
// (Network.InferVolumeIO), and downloaded as raw stitched outputs.
//
//	POST   /cube                {"shape":[x,y,z], "dtype":"f64"?, "block":0?, ...} → job
//	PUT    /cube/{id}/data      raw little-endian chunk at ?offset= (contiguous)
//	POST   /cube/{id}/start     begin streaming once the upload is complete
//	GET    /cube/{id}           progress: state, blocks done/total, bytes stitched
//	GET    /cube/{id}/output/{i} raw stitched output volume i (default 0)
//	DELETE /cube/{id}           drop a finished (or unstarted) job
//
// A running job holds a reference on the model generation that started it,
// exactly like an /infer request: hot reloads never close a generation out
// from under a streaming job, and the job reports which generation stitched
// it. Admission control is job-granular — past -max-cube-jobs unfinished
// jobs, POST /cube sheds with 429 — and one job streams at a time so cube
// traffic cannot starve latency-bound /infer rounds of more than one
// stream's worth of scheduler slots.

// Cube job lifecycle states.
const (
	cubeUploading = "uploading"
	cubeRunning   = "running"
	cubeDone      = "done"
	cubeFailed    = "failed"
)

// cubeJob is one whole-volume inference job. The mutex guards lifecycle
// state and buffers; the progress gauges are atomics so GET /cube/{id}
// never contends with the stitcher.
type cubeJob struct {
	id       string
	shape    tensor.Shape
	dtype    tile.DType
	outShape tensor.Shape
	numOut   int
	opt      znn.TileOptions

	mu        sync.Mutex
	state     string
	received  int64
	in        []byte
	outs      [][]byte
	errMsg    string
	gen       int64 // generation that streamed the job
	created   time.Time
	started   time.Time
	finished  time.Time
	stats     tile.Stats
	uploading atomic.Bool // rejects concurrent PUTs without holding mu across body reads

	blocksDone    atomic.Int64
	blocksTotal   atomic.Int64
	bytesStitched atomic.Int64
}

// inputBytes and outputBytes are exact for every admitted job: admission
// refuses a job whose byte counts overflow (see tile.VolumeBytes).
func (j *cubeJob) inputBytes() int64 {
	n, _ := tile.VolumeBytes(j.shape, j.dtype)
	return n
}

func (j *cubeJob) outputBytes() int64 {
	n, _ := tile.VolumeBytes(j.outShape, j.dtype)
	return n
}

// wire renders the job's progress document. Caller holds j.mu.
func (j *cubeJob) wire() map[string]any {
	m := map[string]any{
		"id":             j.id,
		"state":          j.state,
		"shape":          []int{j.shape.X, j.shape.Y, j.shape.Z},
		"dtype":          j.dtype.String(),
		"input_bytes":    j.inputBytes(),
		"received_bytes": j.received,
		"output_shape":   []int{j.outShape.X, j.outShape.Y, j.outShape.Z},
		"outputs":        j.numOut,
		"output_bytes":   j.outputBytes(),
		"blocks_done":    j.blocksDone.Load(),
		"blocks_total":   j.blocksTotal.Load(),
		"bytes_stitched": j.bytesStitched.Load(),
		"created_at":     j.created.UTC().Format(time.RFC3339),
	}
	if j.errMsg != "" {
		m["error"] = j.errMsg
	}
	if j.state == cubeDone || j.state == cubeFailed {
		m["generation"] = j.gen
		m["ms"] = float64(j.finished.Sub(j.started).Nanoseconds()) / 1e6
		m["blocks"] = j.stats.Blocks
		m["rounds"] = j.stats.Rounds
	}
	return m
}

// cubeActive counts unfinished jobs (uploading or running) — the admission
// bound POST /cube sheds against, and a /stats gauge.
func (s *server) cubeActive() int {
	s.cubeMu.Lock()
	defer s.cubeMu.Unlock()
	n := 0
	for _, j := range s.cubeJobs {
		j.mu.Lock()
		if j.state == cubeUploading || j.state == cubeRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// cubeRoutes registers the cube-job endpoints (Go 1.22 method patterns);
// main and the tests share it.
func (s *server) cubeRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /cube", s.handleCubeCreate)
	mux.HandleFunc("PUT /cube/{id}/data", s.handleCubeUpload)
	mux.HandleFunc("POST /cube/{id}/start", s.handleCubeStart)
	mux.HandleFunc("GET /cube/{id}", s.handleCubeProgress)
	mux.HandleFunc("GET /cube/{id}/output", s.handleCubeOutput)
	mux.HandleFunc("GET /cube/{id}/output/{i}", s.handleCubeOutput)
	mux.HandleFunc("DELETE /cube/{id}", s.handleCubeDelete)
}

func (s *server) cubeLookup(w http.ResponseWriter, r *http.Request) *cubeJob {
	id := r.PathValue("id")
	s.cubeMu.Lock()
	j := s.cubeJobs[id]
	s.cubeMu.Unlock()
	if j == nil {
		http.Error(w, fmt.Sprintf("no cube job %q", id), http.StatusNotFound)
	}
	return j
}

// cubeCreateRequest is the POST /cube body. Block/K/Window are the
// TileOptions knobs; zero values let the execution planner (or the
// defaults) choose.
type cubeCreateRequest struct {
	Shape  []int  `json:"shape"`
	DType  string `json:"dtype,omitempty"`
	Block  int    `json:"block,omitempty"`
	K      int    `json:"k,omitempty"`
	Window int    `json:"window,omitempty"`
}

func (s *server) handleCubeCreate(w http.ResponseWriter, r *http.Request) {
	var req cubeCreateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Shape) != 3 {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("shape must have 3 extents, got %d", len(req.Shape)), http.StatusBadRequest)
		return
	}
	shape := tensor.Shape{X: req.Shape[0], Y: req.Shape[1], Z: req.Shape[2]}
	dt := tile.F64
	if req.DType != "" {
		var err error
		if dt, err = tile.ParseDType(req.DType); err != nil {
			s.rejected.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	nw := s.current().nw
	if err := nw.Tileable(); err != nil {
		s.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Validate the decomposition up front (volume at least the FOV, sane
	// extents) with the smallest block, so a doomed job fails before its
	// upload instead of after.
	probe := req.Block
	if probe < 1 {
		probe = 1
	}
	g, err := tile.NewGrid(shape, nw.FieldOfView(), probe)
	if err != nil {
		s.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job := &cubeJob{
		shape: shape, dtype: dt, outShape: g.Out, numOut: nw.NumOutputs(),
		opt:   znn.TileOptions{BlockOut: req.Block, K: req.K, Window: req.Window},
		state: cubeUploading, created: time.Now(),
	}
	in, inErr := tile.VolumeBytes(shape, dt)
	out, outErr := tile.VolumeBytes(g.Out, dt)
	if inErr != nil || outErr != nil || in > s.maxCubeBytes || out > s.maxCubeBytes {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("volume %v (output %v) of %s is over the %d-byte cube cap",
			shape, g.Out, dt, s.maxCubeBytes), http.StatusRequestEntityTooLarge)
		return
	}
	// Job-granular admission: shed before allocating the input buffer.
	if active := s.cubeActive(); s.maxCubeJobs > 0 && active >= s.maxCubeJobs {
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		http.Error(w, fmt.Sprintf("%d cube jobs unfinished, threshold %d; retry later",
			active, s.maxCubeJobs), http.StatusTooManyRequests)
		return
	}
	job.in = make([]byte, job.inputBytes())
	s.cubeMu.Lock()
	s.cubeSeq++
	job.id = "c" + strconv.FormatInt(s.cubeSeq, 10)
	s.cubeJobs[job.id] = job
	s.cubeMu.Unlock()

	job.mu.Lock()
	doc := job.wire()
	job.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(doc)
}

func (s *server) handleCubeUpload(w http.ResponseWriter, r *http.Request) {
	job := s.cubeLookup(w, r)
	if job == nil {
		return
	}
	if !job.uploading.CompareAndSwap(false, true) {
		http.Error(w, "another upload to this job is in progress", http.StatusConflict)
		return
	}
	defer job.uploading.Store(false)

	job.mu.Lock()
	if job.state != cubeUploading {
		state := job.state
		job.mu.Unlock()
		http.Error(w, fmt.Sprintf("job is %s; uploads are only accepted before start", state), http.StatusConflict)
		return
	}
	off := job.received
	if q := r.URL.Query().Get("offset"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			job.mu.Unlock()
			http.Error(w, fmt.Sprintf("offset: want a non-negative byte offset, got %q", q), http.StatusBadRequest)
			return
		}
		off = v
	}
	if off != job.received {
		have := job.received
		job.mu.Unlock()
		http.Error(w, fmt.Sprintf("chunks must be contiguous: next offset is %d, got %d", have, off),
			http.StatusConflict)
		return
	}
	buf := job.in[off:]
	job.mu.Unlock()

	if len(buf) == 0 {
		http.Error(w, "upload already complete", http.StatusBadRequest)
		return
	}
	// The uploading flag is the exclusion; reading the body outside the
	// mutex keeps slow uploads from blocking progress polls.
	n, err := io.ReadFull(r.Body, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		http.Error(w, fmt.Sprintf("reading chunk: %v", err), http.StatusBadRequest)
		return
	}
	if n == len(buf) {
		var one [1]byte
		if m, _ := r.Body.Read(one[:]); m > 0 {
			http.Error(w, fmt.Sprintf("chunk overruns the volume: %d input bytes total", job.inputBytes()),
				http.StatusBadRequest)
			return
		}
	}
	job.mu.Lock()
	job.received += int64(n)
	received, total := job.received, job.inputBytes()
	job.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"id": job.id, "received_bytes": received, "input_bytes": total,
		"complete": received == total,
	})
}

func (s *server) handleCubeStart(w http.ResponseWriter, r *http.Request) {
	job := s.cubeLookup(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	switch {
	case job.state != cubeUploading:
		state := job.state
		job.mu.Unlock()
		http.Error(w, fmt.Sprintf("job already %s", state), http.StatusConflict)
		return
	case job.received != job.inputBytes():
		have, want := job.received, job.inputBytes()
		job.mu.Unlock()
		http.Error(w, fmt.Sprintf("upload incomplete: %d of %d bytes received", have, want),
			http.StatusConflict)
		return
	}
	job.state = cubeRunning
	job.started = time.Now()
	doc := job.wire()
	job.mu.Unlock()

	go s.runCube(job)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(doc)
}

// runCube streams one job: wait for the single cube-stream slot, take a
// reference on the serving generation (reloads drain around us), stream
// the volume through the tiler, and publish the stitched outputs.
func (s *server) runCube(job *cubeJob) {
	s.cubeRun <- struct{}{}
	defer func() { <-s.cubeRun }()
	g := s.acquire()
	defer g.release()

	outs := make([][]byte, job.numOut)
	writers := make([]tile.Writer, job.numOut)
	for i := range writers {
		outs[i] = make([]byte, job.outputBytes())
		writers[i] = tile.NewRawWriter(sliceWriterAt(outs[i]), job.outShape, job.dtype)
	}
	reader := tile.NewRawReader(bytes.NewReader(job.in), job.shape, job.dtype)

	opt := job.opt
	var prevDone, prevTotal, prevBytes int64
	opt.OnProgress = func(p znn.TileProgress) {
		job.blocksDone.Store(int64(p.BlocksDone))
		job.blocksTotal.Store(int64(p.BlocksTotal))
		job.bytesStitched.Store(p.BytesStitched)
		// Per-callback deltas keep the process-wide gauges additive across
		// jobs; the executor calls us from one goroutine per stream.
		s.cubeBlocksDone.Add(int64(p.BlocksDone) - prevDone)
		s.cubeBlocksTotal.Add(int64(p.BlocksTotal) - prevTotal)
		s.cubeBytesStitched.Add(p.BytesStitched - prevBytes)
		prevDone, prevTotal, prevBytes = int64(p.BlocksDone), int64(p.BlocksTotal), p.BytesStitched
	}
	st, err := g.nw.InferVolumeIO(reader, writers, opt)

	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	job.gen = g.id
	job.stats = st
	if err != nil {
		job.state = cubeFailed
		job.errMsg = err.Error()
		s.cubeFailed.Add(1)
		return
	}
	job.outs = outs
	job.in = nil // the upload buffer is dead weight once stitched
	job.state = cubeDone
	s.cubeDone.Add(1)
}

func (s *server) handleCubeProgress(w http.ResponseWriter, r *http.Request) {
	job := s.cubeLookup(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	doc := job.wire()
	job.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

func (s *server) handleCubeOutput(w http.ResponseWriter, r *http.Request) {
	job := s.cubeLookup(w, r)
	if job == nil {
		return
	}
	idx := 0
	if v := r.PathValue("i"); v != "" {
		var err error
		if idx, err = strconv.Atoi(v); err != nil || idx < 0 || idx >= job.numOut {
			http.Error(w, fmt.Sprintf("output index %q: job has %d outputs", v, job.numOut), http.StatusBadRequest)
			return
		}
	}
	job.mu.Lock()
	if job.state != cubeDone {
		state, msg := job.state, job.errMsg
		job.mu.Unlock()
		if state == cubeFailed {
			http.Error(w, fmt.Sprintf("job failed: %s", msg), http.StatusGone)
			return
		}
		http.Error(w, fmt.Sprintf("job is %s; output is available once done", state), http.StatusConflict)
		return
	}
	out := job.outs[idx]
	job.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Write(out)
}

func (s *server) handleCubeDelete(w http.ResponseWriter, r *http.Request) {
	job := s.cubeLookup(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	running := job.state == cubeRunning
	job.mu.Unlock()
	if running {
		http.Error(w, "job is running; wait for it to finish", http.StatusConflict)
		return
	}
	s.cubeMu.Lock()
	delete(s.cubeJobs, job.id)
	s.cubeMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// sliceWriterAt adapts a byte slice to io.WriterAt for the raw stitcher.
type sliceWriterAt []byte

func (b sliceWriterAt) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(b)) {
		return 0, fmt.Errorf("write [%d,%d) outside buffer of %d bytes", off, off+int64(len(p)), len(b))
	}
	return copy(b[off:], p), nil
}
