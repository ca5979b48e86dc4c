package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"znn"
)

// stubDispatch returns a dispatch function that tags each volume's output
// with its batch index so demuxing errors are visible, and records batch
// widths.
func stubDispatch(mu *sync.Mutex, widths *[]int, fail func(width int) error) func([][]*znn.Tensor) ([][]*znn.Tensor, int64, error) {
	return func(batch [][]*znn.Tensor) ([][]*znn.Tensor, int64, error) {
		mu.Lock()
		*widths = append(*widths, len(batch))
		mu.Unlock()
		if fail != nil {
			if err := fail(len(batch)); err != nil {
				return nil, 1, err
			}
		}
		outs := make([][]*znn.Tensor, len(batch))
		for i, in := range batch {
			o := znn.NewTensor(znn.S3(1, 1, 1))
			o.Data[0] = in[0].Data[0] // echo a volume fingerprint
			outs[i] = []*znn.Tensor{o}
		}
		return outs, 1, nil
	}
}

func reqTensor(v float64) []*znn.Tensor {
	t := znn.NewTensor(znn.S3(1, 1, 1))
	t.Data[0] = v
	return []*znn.Tensor{t}
}

// TestBatcherCoalesces checks that concurrent requests fuse into one wide
// dispatch, each getting its own demuxed output back.
func TestBatcherCoalesces(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	b := newBatcher(stubDispatch(&mu, &widths, nil), 4, 300*time.Millisecond, nil)
	defer b.close()

	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs, _, err := b.submit(reqTensor(float64(i)), time.Time{})
			if err != nil {
				errs <- err
				return
			}
			if got := outs[0].Data[0]; got != float64(i) {
				errs <- fmt.Errorf("request %d demuxed someone else's output %v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := b.batchedReqs.Load(); got != n {
		t.Fatalf("batched_requests = %d, want %d", got, n)
	}
	// With a 300ms window and 4 concurrent submits, everything after the
	// first dispatch coalesces; at minimum the requests must not have gone
	// out one per round.
	if got := b.batches.Load(); got >= n {
		t.Fatalf("batches = %d for %d concurrent requests: no coalescing happened", got, n)
	}
	if mean := b.widthMean(); mean <= 1 {
		t.Fatalf("mean batch width %v, want > 1", mean)
	}
}

// TestBatcherLoneRequestDispatchesAfterDelay checks a lone request does not
// wait for a full batch: the -batch-delay timer fires and the width-1 batch
// dispatches.
func TestBatcherLoneRequestDispatchesAfterDelay(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	const delay = 30 * time.Millisecond
	b := newBatcher(stubDispatch(&mu, &widths, nil), 8, delay, nil)
	defer b.close()

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, _, err := b.submit(reqTensor(7), time.Time{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * delay):
		t.Fatalf("lone request still queued after %v (10× the batch delay): batcher waited for a full batch", 10*delay)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("lone request dispatched after %v, before the %v coalescing window", elapsed, delay)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(widths) != 1 || widths[0] != 1 {
		t.Fatalf("dispatch widths = %v, want [1]", widths)
	}
}

// TestBatcherGreedyLoneRequestNoDelay checks the delay-0 regime: a lone
// request dispatches immediately, with no timer in the path.
func TestBatcherGreedyLoneRequestNoDelay(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	b := newBatcher(stubDispatch(&mu, &widths, nil), 8, 0, nil)
	defer b.close()
	start := time.Now()
	if _, _, err := b.submit(reqTensor(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("greedy lone request took %v", elapsed)
	}
	if got := b.batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
}

// TestBatcherErrorIsolation checks a mid-batch round error fails exactly
// that batch's requests: the poisoned batch's submitters all get the error,
// and the next batch succeeds untouched (round errors are round-local —
// this is the serving-level face of sched's TestRoundErrorIsolation).
func TestBatcherErrorIsolation(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	roundErr := errors.New("fused round failed")
	failFirst := true
	b := newBatcher(stubDispatch(&mu, &widths, func(int) error {
		mu.Lock()
		defer mu.Unlock()
		if failFirst {
			failFirst = false
			return roundErr
		}
		return nil
	}), 2, 200*time.Millisecond, nil)
	defer b.close()

	// Two concurrent requests fill the first (poisoned) batch of width 2.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.submit(reqTensor(float64(i)), time.Time{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, roundErr) {
			t.Fatalf("poisoned batch request %d: err = %v, want the round error", i, err)
		}
	}
	// The next batch must be unaffected.
	outs, _, err := b.submit(reqTensor(9), time.Time{})
	if err != nil {
		t.Fatalf("batch after a failed round inherited its error: %v", err)
	}
	if outs[0].Data[0] != 9 {
		t.Fatalf("post-error batch demuxed wrong output %v", outs[0].Data[0])
	}
}

// TestServerBatchedInfer drives the real handler path end to end: a server
// with -max-batch 4 takes concurrent POSTs, fuses them, and each response
// must match the unbatched Infer reference for its own volume.
func TestServerBatchedInfer(t *testing.T) {
	nw, err := znn.NewNetwork("C3-Trelu-C1", znn.Config{
		Width: 2, OutputPatch: 5, Workers: 2, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	s := newServer(nw, 4, 4, 20*time.Millisecond)
	defer s.batch.close()
	ts := httptest.NewServer(http.HandlerFunc(s.handleInfer))
	defer ts.Close()

	rng := rand.New(rand.NewSource(62))
	const n = 3
	vols := make([]*znn.Tensor, n)
	want := make([]*znn.Tensor, n)
	for i := range vols {
		vols[i] = znn.NewTensor(nw.InputShape())
		for j := range vols[i].Data {
			vols[i].Data[j] = rng.Float64()*2 - 1
		}
		outs, err := nw.Infer(vols[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0]
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"data": vols[i].Data})
			resp, err := http.Post(ts.URL, "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var ir inferResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				errs <- err
				return
			}
			if len(ir.Outputs) != 1 || len(ir.Outputs[0].Data) != len(want[i].Data) {
				errs <- fmt.Errorf("request %d: malformed outputs", i)
				return
			}
			for j, v := range ir.Outputs[0].Data {
				if v != want[i].Data[j] {
					errs <- fmt.Errorf("request %d: batched output differs from unbatched Infer at voxel %d", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.served.Load(); got != n {
		t.Fatalf("served = %d, want %d", got, n)
	}
	if got := s.batch.batchedReqs.Load(); got != n {
		t.Fatalf("batched_requests = %d, want %d", got, n)
	}
}
