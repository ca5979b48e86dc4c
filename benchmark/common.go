package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"znn/internal/mempool"
)

// workers is the scheduler width of every workload: the build box has two
// cores, and a workload wider than the machine measures the OS scheduler.
const workers = 2

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    int64
	seconds float64 // length of the timed section
	smoke   bool    // 1/50 size: proves the checks fire, measures nothing
	corrupt bool    // spoil one expected value, so a check must fail
	outDir  string  // where temporary files, traces and results go
}

// scaled picks the full-size or the smoke-size value of a dimension.
func (c *runCtx) scaled(full, smoke int) int {
	if c.smoke {
		return smoke
	}
	return full
}

// check is one correctness check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// section is one timed stretch of operations.
type section struct {
	lat       []float64 // seconds of each successful operation
	attempted int
	failed    int
	busy      float64 // seconds the operations took: their sum, or the wall time of concurrent clients
	voxels    float64 // output voxels the successful operations produced
	counts    map[string]float64
}

// merge adds another section's operations to s; counts are kept apart.
func (s *section) merge(o section) {
	s.lat = append(s.lat, o.lat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.busy += o.busy
	s.voxels += o.voxels
}

// instance is one workload, set up for one run.
type instance interface {
	// setup builds the system under test and completes its first operation,
	// returning the seconds that took. Inputs are made beforehand. A second
	// call discards the first system.
	setup() (float64, error)
	// warm runs the remaining untimed operations.
	warm() error
	// measure runs operations for d, and at least minOps of them. With a
	// recorder it also records a span per operation under parent and the
	// counts of the section.
	measure(d time.Duration, minOps int, rec *recorder, parent int) section
	// verify checks the outputs the run produced.
	verify() []check
	// layers times this workload's layers through their exported functions.
	layers(rec *recorder, parent int) (map[string]float64, error)
	close()
}

// workload is a named way to make an instance. minOps is the fewest timed
// operations a run reports on, however slow the machine.
type workload struct {
	name   string
	minOps int
	start  func(c *runCtx) (instance, error)
}

var workloads = []workload{
	{"train_fft7", 20, startTrainFFT7},
	{"train_aniso_auto", 20, startTrainAniso},
	{"infer_cube_f32", 5, startInferCube},
	{"serve_closed2", 0, startServe},
}

// runOps runs op repeatedly for d (and at least minOps times), one at a
// time, and returns the section. op returns the voxels it produced. after,
// when not nil, runs untimed after each successful op; its error fails the op.
func runOps(d time.Duration, minOps int, rec *recorder, parent int, op func(span int) (float64, error), after func() error) section {
	var s section
	for i := 0; s.busy < d.Seconds() || i < minOps; i++ {
		sp := rec.begin("op", parent, rec.newOp())
		t0 := time.Now()
		vox, err := op(sp)
		dt := time.Since(t0).Seconds()
		rec.end(sp)
		s.attempted++
		s.busy += dt
		if err == nil && after != nil {
			err = after()
		}
		if err != nil {
			s.failed++
			continue
		}
		s.lat = append(s.lat, dt)
		s.voxels += vox
	}
	return s
}

// procCounters is a snapshot of the counts this process keeps: processor
// time, the three memory pools and the Go heap.
type procCounters struct {
	cpu         float64
	poolMiss    float64
	spectraGets float64
	heapBytes   float64
	gcs         float64
}

func pools() []mempool.Stats {
	return []mempool.Stats{mempool.Images.Stats(), mempool.Spectra.Stats(), mempool.Spectra32.Stats()}
}

func readProcCounters() procCounters {
	var c procCounters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	for i, st := range pools() {
		c.poolMiss += float64(st.Misses)
		if i > 0 {
			c.spectraGets += float64(st.Hits + st.Misses)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapBytes = float64(ms.TotalAlloc)
	c.gcs = float64(ms.NumGC)
	return c
}

func resetPoolPeaks() {
	mempool.Images.ResetPeak()
	mempool.Spectra.ResetPeak()
	mempool.Spectra32.ResetPeak()
}

// spectraPeakBytes is the high-water mark of both spectrum pools since the
// last resetPoolPeaks: the quantity the execution planner's byte model bounds.
func spectraPeakBytes() float64 {
	return float64(mempool.Spectra.Stats().PeakLiveBytes + mempool.Spectra32.Stats().PeakLiveBytes)
}

// counted runs an in-process section between two counter snapshots and
// attaches the per-operation counts to it.
func counted(wall func() section) section {
	resetPoolPeaks()
	before := readProcCounters()
	t0 := time.Now()
	s := wall()
	elapsed := time.Since(t0).Seconds()
	after := readProcCounters()
	ops := math.Max(1, float64(s.attempted))
	var peak float64
	for _, st := range pools() {
		peak += float64(st.PeakLiveBytes)
	}
	s.counts = map[string]float64{
		"sched.cpu_util":              (after.cpu - before.cpu) / (elapsed * workers),
		"mempool.peak_live_mb":        peak / 1e6,
		"mempool.miss_per_op":         (after.poolMiss - before.poolMiss) / ops,
		"mempool.spectra_gets_per_op": (after.spectraGets - before.spectraGets) / ops,
		"go.heap_mb_per_op":           (after.heapBytes - before.heapBytes) / ops / 1e6,
		"go.gc_per_op":                (after.gcs - before.gcs) / ops,
	}
	return s
}

// timing is what timeCalls measured.
type timing struct {
	median float64 // seconds of the median call
	mid    float64 // interquartile mean of the calls' seconds
	total  float64 // seconds of all calls
	calls  int
}

// timeCalls calls fn until it has run at least minCalls times and for at
// least minTime in total, one span per call. prep, when not nil, runs
// untimed before each call.
func timeCalls(rec *recorder, parent int, name string, minCalls int, minTime time.Duration, prep, fn func()) timing {
	layer := rec.begin(name, parent, 0)
	defer rec.end(layer)
	var lat []float64
	var t timing
	for ; t.calls < minCalls || t.total < minTime.Seconds(); t.calls++ {
		if prep != nil {
			prep()
		}
		sp := rec.begin("call", layer, 0)
		t0 := time.Now()
		fn()
		dt := time.Since(t0).Seconds()
		rec.end(sp)
		t.total += dt
		lat = append(lat, dt)
	}
	t.median, t.mid = median(lat), midMean(lat)
	return t
}

func okCheck(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}
