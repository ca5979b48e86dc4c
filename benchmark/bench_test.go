package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"znn"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// A percentile is reported only with ten samples beyond it: p90 needs 100
// samples, p99 needs 1000.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		p         float64
		value     float64
		supported bool
	}{
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{6, 0.90, 6, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.value || ok != c.supported {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.value, c.supported)
		}
		if got := tailOrZero(seq(c.n), c.p); (got != 0) != c.supported {
			t.Errorf("tailOrZero(1..%d, %v) = %v", c.n, c.p, got)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{151, 152, 151, 181, 161, 161, 141, 151, 151, 160}, [3]float64{151, 151.5, 161}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got, want := spread(seq(10)), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	if got := worsening(100, 110, true); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower is better: %v", got)
	}
	if got := worsening(100, 110, false); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher is better: %v", got)
	}
}

// Self time is a span's duration minus what its children cover: children
// that overlap are counted once, and a child is clipped to its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, r.newOp())
	r.end(id)
	r.count("n", 1)
	if id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	rec := newRecorder()
	a := rec.begin("a", 0, rec.newOp())
	b := rec.begin("b", a, 0)
	rec.end(b)
	rec.end(a)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.write(path, "w", fingerprint{}); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 2 || tf.Spans[1].Parent != tf.Spans[0].ID || tf.Spans[0].Op != 1 {
		t.Errorf("unexpected spans %+v", tf.Spans)
	}
}

// fakeServe is a serveInst whose "server" is an httptest handler.
func fakeServe(t *testing.T, h http.HandlerFunc) (*serveInst, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(h)
	in := znn.NewTensor(znn.Cube(1))
	body, _ := json.Marshal(wireVolume{Shape: []int{1, 1, 1}, Data: in.Data})
	want := znn.NewTensor(znn.Cube(1))
	want.Data[0] = 0.5
	s := &serveInst{c: &runCtx{}, bodies: [][]byte{body}, expected: []*znn.Tensor{want}, outVox: 1,
		child: &child{base: srv.URL, exited: make(chan struct{})}}
	return s, srv
}

func answer(w http.ResponseWriter, v float64) {
	json.NewEncoder(w).Encode(wireResponse{Outputs: []wireVolume{{Shape: []int{1, 1, 1}, Data: []float64{v}}}})
}

// A request that is refused, errors or answers wrongly is a failure, and
// only the others contribute a latency.
func TestServeCountsRefusedAndWrongAsFailed(t *testing.T) {
	for name, c := range map[string]struct {
		h      http.HandlerFunc
		failed bool
	}{
		"ok":      {func(w http.ResponseWriter, r *http.Request) { answer(w, 0.5) }, false},
		"shed":    {func(w http.ResponseWriter, r *http.Request) { http.Error(w, "saturated", http.StatusTooManyRequests) }, true},
		"error":   {func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) }, true},
		"wrong":   {func(w http.ResponseWriter, r *http.Request) { answer(w, 0.5+1e-6) }, true},
		"garbage": {func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "{") }, true},
	} {
		s, srv := fakeServe(t, c.h)
		sec := s.load(30*time.Millisecond, nil, 0)
		srv.Close()
		if sec.attempted == 0 {
			t.Fatalf("%s: no requests attempted", name)
		}
		if c.failed && (sec.failed != sec.attempted || len(sec.lat) != 0) {
			t.Errorf("%s: %d of %d failed, %d latencies; want all failed", name, sec.failed, sec.attempted, len(sec.lat))
		}
		if !c.failed && (sec.failed != 0 || len(sec.lat) != sec.attempted) {
			t.Errorf("%s: %d of %d failed", name, sec.failed, sec.attempted)
		}
		if got := failFrac(sec.attempted, sec.failed); c.failed != (got == 1) {
			t.Errorf("%s: fail_frac %v", name, got)
		}
	}
}

// A server that dies mid-run fails the remaining requests; the loop ends on
// time instead of hanging.
func TestServeDeadServerFailsWithoutHanging(t *testing.T) {
	s, srv := fakeServe(t, func(w http.ResponseWriter, r *http.Request) { answer(w, 0.5) })
	srv.Close()
	t0 := time.Now()
	sec := s.load(100*time.Millisecond, nil, 0)
	if time.Since(t0) > 2*time.Second {
		t.Errorf("load took %v after the server died", time.Since(t0))
	}
	if sec.attempted == 0 || sec.failed != sec.attempted {
		t.Errorf("%d of %d failed, want all", sec.failed, sec.attempted)
	}
	if sec.attempted > 2*clients*11 {
		t.Errorf("%d attempts in 100 ms: the clients did not pace themselves", sec.attempted)
	}
}

func TestParseCPUInfo(t *testing.T) {
	model, ghz := parseCPUInfo("processor\t: 0\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\ncpu MHz\t\t: 2100.000\n")
	if model != "Intel(R) Xeon(R) Processor @ 2.10GHz" || ghz != 2.1 {
		t.Errorf("got %q, %v", model, ghz)
	}
	model, ghz = parseCPUInfo("model name\t: Some CPU\ncpu MHz\t\t: 2694.7\n")
	if model != "Some CPU" || ghz != 2.69 {
		t.Errorf("got %q, %v", model, ghz)
	}
}

func bound(b float64) *float64 { return &b }

func resultWith(fp fingerprint, values []float64) resultFile {
	d := metricDecl{Name: "op_ms", Unit: "ms", Better: "lower", Bound: bound(0.10)}
	return resultFile{Fingerprint: fp, Workloads: []workloadResult{{Name: "w", EndToEnd: []metricSummary{summarise(d, values)}}}}
}

func writeResult(t *testing.T, r resultFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	a := fingerprint{CPU: "x", GHz: 2.1, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", KernelPath: "avx2", Commit: "a", Seed: 1}
	b := a
	b.Commit, b.Seed = "b", 2
	if err := sameHost(a, b); err != nil {
		t.Errorf("commit and seed may differ: %v", err)
	}
	b.GHz = 2.7
	if err := sameHost(a, b); err == nil || !strings.Contains(err.Error(), "ghz") {
		t.Errorf("differing clock not refused: %v", err)
	}
	var out, errOut bytes.Buffer
	code := compareFiles(writeResult(t, resultWith(a, seq(5))), writeResult(t, resultWith(b, seq(5))), &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("exit %d, stderr %q", code, errOut.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	fp := fingerprint{CPU: "x"}
	steady := []float64{100, 101, 100, 99, 100}
	for _, c := range []struct {
		name string
		b    []float64
		want string
		code int
	}{
		{"same", steady, "within bound", 0},
		{"slower", []float64{120, 121, 120, 119, 120}, "REGRESSED", 1},
		{"faster", []float64{80, 81, 80, 79, 80}, "improved", 0},
		{"noisy", []float64{90, 130, 100, 140, 120}, "unresolved (spread", 0},
		{"single", []float64{150}, "unresolved (a single run", 0},
	} {
		var out, errOut bytes.Buffer
		code := compareFiles(writeResult(t, resultWith(fp, steady)), writeResult(t, resultWith(fp, c.b)), &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s%s", c.name, code, c.code, c.want, out.String(), errOut.String())
		}
	}
}

// TestSmoke runs every workload at 1/50 size, untraced and traced: every
// check passes, every declared metric is measured by some workload and no
// undeclared one is, the layers that a workload bypasses stay at zero, and a
// spoiled expected value fails each workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds znn-serve")
	}
	if err := enterRoot(); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	ctx := func(corrupt bool) *runCtx {
		return &runCtx{seed: 7, seconds: float64(spec.RunSeconds) / 50, smoke: true, corrupt: corrupt, outDir: out}
	}
	declared := map[string]bool{}
	for _, d := range spec.PerLayer {
		declared[d.Name] = false
	}
	traced := map[string]*runOutput{}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		plain, err := runOnce(w, ctx(false), false, fingerprint{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !plain.Correct {
			t.Errorf("%s: not correct: %+v", w.name, plain.Checks)
		}
		if _, err := driverLine(plain, spec.EndToEnd, true); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range spec.EndToEnd {
			if plain.Values[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, plain.Values[d.Name])
			}
		}
		tr, err := runOnce(w, ctx(false), true, fingerprint{})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !tr.Correct {
			t.Errorf("%s traced: not correct: %+v", w.name, tr.Checks)
		}
		traced[w.name] = tr
		for k := range tr.Values {
			if _, ok := declared[k]; !ok {
				t.Errorf("%s measures %s, which BENCHMARK.json does not declare", w.name, k)
			}
			declared[k] = true
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		bad, err := runOnce(w, ctx(true), false, fingerprint{})
		if err == nil && bad.Correct {
			t.Errorf("%s: a spoiled expected value went unnoticed", w.name)
		}
	}
	for name, measured := range declared {
		if !measured {
			t.Errorf("no workload measures %s", name)
		}
	}
	// Layer separation, seen from outside.
	gets := "mempool.spectra_gets_per_op"
	if v := traced["train_aniso_auto"].Values[gets]; v != 0 {
		t.Errorf("train_aniso_auto: %s = %v, want 0", gets, v)
	}
	// (infer_cube_f32 draws spectra at full size; at smoke size its blocks
	// are small enough that the planner convolves them directly.)
	if v := traced["train_fft7"].Values[gets]; v <= 0 {
		t.Errorf("train_fft7: %s = %v, want > 0", gets, v)
	}
	for name, tr := range traced {
		if _, ok := tr.Values["tile.blocks"]; ok != (name == "infer_cube_f32") {
			t.Errorf("%s: tile.blocks measured = %v", name, ok)
		}
		if _, ok := tr.Values["serve.overhead_ms"]; ok != (name == "serve_closed2") {
			t.Errorf("%s: serve.overhead_ms measured = %v", name, ok)
		}
	}
	entries, _ := os.ReadDir(out)
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
}
