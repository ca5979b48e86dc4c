package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"znn"
	"znn/internal/chaos"
)

func testNet(t *testing.T, seed int64) *znn.Network {
	t.Helper()
	nw, err := znn.NewNetwork("C3-Trelu-C1", znn.Config{
		Width: 2, OutputPatch: 5, Workers: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// postInfer sends one volume and decodes the response, returning the raw
// *http.Response for status/header checks alongside the decoded body.
func postInfer(ts *httptest.Server, data []float64, hdr map[string]string) (*http.Response, inferResponse, error) {
	body, _ := json.Marshal(map[string]any{"data": data})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/infer", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, inferResponse{}, err
	}
	defer resp.Body.Close()
	var ir inferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			return resp, ir, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, ir, nil
}

func serveMux(s *server) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/stats", s.handleStats)
	s.cubeRoutes(mux)
	return httptest.NewServer(mux)
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReloadUnderLoadBitIdentical is the hot-reload contract: N concurrent
// clients hammer /infer while POST /reload swaps the weights underneath
// them. Every request must succeed, and each response must be bit-identical
// to the reference output of the generation it reports — no request is ever
// served by a mixture of old and new weights.
func TestReloadUnderLoadBitIdentical(t *testing.T) {
	nw := testNet(t, 11)
	next := testNet(t, 99)
	ckpt := filepath.Join(t.TempDir(), "next.znn")
	if err := next.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}

	// One fixed input volume; per-generation reference outputs computed on
	// the exact weight sets the server will serve.
	rng := rand.New(rand.NewSource(7))
	in := znn.NewTensor(nw.InputShape())
	for i := range in.Data {
		in.Data[i] = rng.Float64()*2 - 1
	}
	want := map[int64][]float64{}
	for gen, n := range map[int64]*znn.Network{1: nw, 2: next} {
		outs, err := n.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		want[gen] = append([]float64(nil), outs[0].Data...)
	}
	next.Close()
	if bytes.Equal(float64Bytes(want[1]), float64Bytes(want[2])) {
		t.Fatal("generations 1 and 2 produce identical outputs; the test cannot tell them apart")
	}

	s := newServer(nw, 4, 4, 0)
	ts := serveMux(s)
	defer ts.Close()
	defer s.shutdown(5 * time.Second)

	// Widen the reload window so requests demonstrably overlap it: the
	// compile stage sleeps 30ms while the old generation keeps serving.
	chaos.Set("reload.compile", chaos.Fault{Delay: 30 * time.Millisecond})
	defer chaos.Clear("reload.compile")

	var reloadErr atomic.Value
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		time.Sleep(5 * time.Millisecond)
		body, _ := json.Marshal(map[string]any{"checkpoint": ckpt})
		resp, err := http.Post(ts.URL+"/reload", "application/json", bytes.NewReader(body))
		if err != nil {
			reloadErr.Store(err.Error())
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			reloadErr.Store(fmt.Sprintf("reload status %d: %s", resp.StatusCode, msg))
		}
	}()

	const clients, perClient = 6, 10
	var gens [2]atomic.Int64 // requests served by generation 1 / 2
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, ir, err := postInfer(ts, in.Data, nil)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("infer during reload: status %d", resp.StatusCode)
					return
				}
				ref, ok := want[ir.Generation]
				if !ok {
					errs <- fmt.Errorf("response names unknown generation %d", ir.Generation)
					return
				}
				for j, v := range ir.Outputs[0].Data {
					if v != ref[j] {
						errs <- fmt.Errorf("generation %d response differs from that generation's reference at voxel %d: weights mixed across generations", ir.Generation, j)
						return
					}
				}
				gens[ir.Generation-1].Add(1)
			}
		}()
	}
	wg.Wait()
	<-reloadDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if msg := reloadErr.Load(); msg != nil {
		t.Fatalf("reload failed under load: %v", msg)
	}
	h := getJSON(t, ts.URL+"/healthz")
	if gen := h["generation"].(float64); gen != 2 {
		t.Fatalf("healthz generation = %v after reload, want 2", gen)
	}
	if src := h["generation_source"].(string); src != ckpt {
		t.Fatalf("generation_source = %q, want %q", src, ckpt)
	}
	t.Logf("served %d on generation 1, %d on generation 2", gens[0].Load(), gens[1].Load())
}

func float64Bytes(d []float64) []byte {
	b, _ := json.Marshal(d)
	return b
}

// TestReloadFailureLeavesOldGenerationServing arms the reload.compile chaos
// point: a failed reload must report 500, keep the old generation serving,
// and surface the error in /healthz until the next successful reload.
func TestReloadFailureLeavesOldGenerationServing(t *testing.T) {
	nw := testNet(t, 21)
	next := testNet(t, 22)
	ckpt := filepath.Join(t.TempDir(), "next.znn")
	if err := next.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	next.Close()

	s := newServer(nw, 2, 1, 0)
	s.reloadPath = ckpt
	ts := serveMux(s)
	defer ts.Close()
	defer s.shutdown(5 * time.Second)

	chaos.Set("reload.compile", chaos.Fault{Err: errors.New("compile blew up")})
	resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	chaos.Clear("reload.compile")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted reload: status %d, want 500", resp.StatusCode)
	}
	h := getJSON(t, ts.URL+"/healthz")
	if gen := h["generation"].(float64); gen != 1 {
		t.Fatalf("failed reload bumped generation to %v", gen)
	}
	if msg := h["last_reload_error"].(string); !strings.Contains(msg, "compile blew up") {
		t.Fatalf("last_reload_error = %q, want the compile failure", msg)
	}

	// The old generation still serves.
	in := make([]float64, nw.InputShape().Volume())
	r, ir, err := postInfer(ts, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || ir.Generation != 1 {
		t.Fatalf("infer after failed reload: status %d generation %d, want 200 on generation 1", r.StatusCode, ir.Generation)
	}

	// A clean retry succeeds and clears the error.
	resp, err = http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry reload: status %d, want 200", resp.StatusCode)
	}
	h = getJSON(t, ts.URL+"/healthz")
	if gen := h["generation"].(float64); gen != 2 {
		t.Fatalf("generation = %v after successful retry, want 2", gen)
	}
	if msg := h["last_reload_error"].(string); msg != "" {
		t.Fatalf("last_reload_error = %q after success, want empty", msg)
	}
}

// TestReloadRejectsCorruptCheckpoint checks a torn checkpoint file is
// rejected 422 with the typed corruption error and the serving generation
// survives.
func TestReloadRejectsCorruptCheckpoint(t *testing.T) {
	nw := testNet(t, 23)
	bad := filepath.Join(t.TempDir(), "torn.znn")
	if err := os.WriteFile(bad, append([]byte("ZNNCKPT\x02"), make([]byte, 40)...), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(nw, 2, 1, 0)
	ts := serveMux(s)
	defer ts.Close()
	defer s.shutdown(5 * time.Second)

	body, _ := json.Marshal(map[string]any{"checkpoint": bad})
	resp, err := http.Post(ts.URL+"/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt checkpoint reload: status %d, want 422", resp.StatusCode)
	}
	if gen := getJSON(t, ts.URL+"/healthz")["generation"].(float64); gen != 1 {
		t.Fatalf("corrupt reload bumped generation to %v", gen)
	}
}

// TestChaosRoundPanicStaysRoundLocal arms the round.dispatch chaos point to
// panic inside a round's task: that request fails 500, but the panic is
// contained to its round — the scheduler, the generation and the next
// request are all unharmed.
func TestChaosRoundPanicStaysRoundLocal(t *testing.T) {
	nw := testNet(t, 41)
	s := newServer(nw, 2, 4, 0)
	ts := serveMux(s)
	defer ts.Close()
	defer s.shutdown(5 * time.Second)

	chaos.Set("round.dispatch", chaos.Fault{Panic: "round wedged", Count: 1})
	defer chaos.Clear("round.dispatch")

	in := make([]float64, nw.InputShape().Volume())
	resp, _, err := postInfer(ts, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking round: status %d, want 500", resp.StatusCode)
	}
	if chaos.Fired("round.dispatch") != 1 {
		t.Fatalf("fault fired %d times, want 1", chaos.Fired("round.dispatch"))
	}
	// The next round on the same engine succeeds: the panic was round-local.
	resp, ir, err := postInfer(ts, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("round after contained panic: status %d, want 200", resp.StatusCode)
	}
	if ir.Generation != 1 {
		t.Fatalf("generation = %d after contained panic, want 1", ir.Generation)
	}
}

// TestAdmissionShedsWithRetryAfter saturates a 1-inflight server past its
// queue threshold: the excess request must shed immediately with 429 and a
// positive Retry-After, while the queued request completes once a slot
// frees.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	nw := testNet(t, 31)
	s := newServer(nw, 1, 1, 0) // unbatched direct path
	s.maxQueue = 1
	ts := serveMux(s)
	defer ts.Close()

	s.sem <- struct{}{} // wedge the only round slot
	in := make([]float64, nw.InputShape().Volume())

	first := make(chan error, 1)
	go func() {
		resp, _, err := postInfer(ts, in, nil)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("queued request: status %d", resp.StatusCode)
		}
		first <- err
	}()
	// Wait until the first request is inside the server (depth 1).
	for i := 0; s.requests.Load() < 1; i++ {
		if i > 1000 {
			t.Fatal("first request never entered the server")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _, err := postInfer(ts, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-threshold request: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	if got := s.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	<-s.sem // free the slot; the queued request must now complete
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	s.shutdown(5 * time.Second)
}

// TestDeadlineExpiresInQueue checks the direct-path deadline: a request
// whose X-Deadline-Ms passes while it waits for a round slot gets 504 and
// counts as expired, never having run a round.
func TestDeadlineExpiresInQueue(t *testing.T) {
	nw := testNet(t, 32)
	s := newServer(nw, 1, 1, 0)
	ts := serveMux(s)
	defer ts.Close()

	s.sem <- struct{}{} // saturated: no slot will free within the deadline
	in := make([]float64, nw.InputShape().Volume())
	resp, _, err := postInfer(ts, in, map[string]string{"X-Deadline-Ms": "20"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504", resp.StatusCode)
	}
	if got := s.expired.Load(); got != 1 {
		t.Fatalf("expired = %d, want 1", got)
	}
	st := getJSON(t, ts.URL+"/stats")
	if got := st["expired"].(float64); got != 1 {
		t.Fatalf("/stats expired = %v, want 1", got)
	}

	// Malformed deadline headers are a client error, not a shed.
	resp, _, err = postInfer(ts, in, map[string]string{"X-Deadline-Ms": "soon"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad X-Deadline-Ms: status %d, want 400", resp.StatusCode)
	}

	<-s.sem
	s.shutdown(5 * time.Second)
}

// TestExpiredRequestsNeverOccupyBatchSlot wedges the batcher behind a full
// in-flight semaphore until the queued requests' deadlines pass: at seal
// time they must all be dropped with errDeadlineExpired and NO round may
// dispatch — an expired request never occupies a batch slot.
func TestExpiredRequestsNeverOccupyBatchSlot(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	sem := make(chan struct{}, 1)
	b := newBatcher(stubDispatch(&mu, &widths, nil), 4, 0, sem)
	defer b.close()

	sem <- struct{}{} // no round slot frees until we say so
	deadline := time.Now().Add(20 * time.Millisecond)
	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.submit(reqTensor(float64(i)), deadline)
		}(i)
	}
	time.Sleep(60 * time.Millisecond) // all three deadlines pass while queued
	<-sem                             // slot frees; the batch seals and must drop everyone
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errDeadlineExpired) {
			t.Fatalf("request %d: err = %v, want errDeadlineExpired", i, err)
		}
	}
	if got := b.expired.Load(); got != n {
		t.Fatalf("expired = %d, want %d", got, n)
	}
	if got := b.batches.Load(); got != 0 {
		t.Fatalf("batches = %d: an expired request occupied a batch slot", got)
	}
	mu.Lock()
	w := append([]int(nil), widths...)
	mu.Unlock()
	if len(w) != 0 {
		t.Fatalf("dispatch widths = %v, want none", w)
	}

	// The freed slot is usable: a live request dispatches normally.
	outs, _, err := b.submit(reqTensor(9), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Data[0] != 9 {
		t.Fatalf("live request after expiries demuxed %v, want 9", outs[0].Data[0])
	}
	if got := b.batches.Load(); got != 1 {
		t.Fatalf("batches = %d after live request, want 1", got)
	}
}

// TestShutdownDrains checks the serving-side half of graceful shutdown:
// after traffic, shutdown() reports a clean drain within its budget.
func TestShutdownDrains(t *testing.T) {
	nw := testNet(t, 51)
	s := newServer(nw, 2, 4, 0)
	ts := serveMux(s)
	in := make([]float64, nw.InputShape().Volume())
	for i := 0; i < 3; i++ {
		resp, _, err := postInfer(ts, in, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup request %d: %v (status %v)", i, err, resp)
		}
	}
	ts.Close()
	if !s.shutdown(5 * time.Second) {
		t.Fatal("shutdown did not drain an idle server within its budget")
	}
	if got := s.served.Load(); got != 3 {
		t.Fatalf("served = %d at shutdown, want 3", got)
	}
}
