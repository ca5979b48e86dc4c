package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadgenConfig is the -loadgen run shape: drive a running znn-serve with
// concurrent clients for a fixed duration, optionally hot-reloading the
// model mid-run, and record the latency/shedding outcome.
type loadgenConfig struct {
	addr        string        // target server base URL
	duration    time.Duration // wall-clock run length
	clients     int           // concurrent request loops
	deadlineMs  float64       // X-Deadline-Ms per request (0 = none)
	reloadEvery time.Duration // POST /reload period (0 = never)
	out         string        // summary JSON path ("" = stdout only)
}

// loadgenSummary is the machine-readable outcome: the counters CI asserts
// on (shed responses must all carry Retry-After, reloads must bump the
// generation) plus the latency quantiles.
type loadgenSummary struct {
	Addr            string  `json:"addr"`
	DurationS       float64 `json:"duration_s"`
	Clients         int     `json:"clients"`
	Requests        int64   `json:"requests"`
	Served          int64   `json:"served"`
	Shed            int64   `json:"shed"`             // 429 responses
	ShedRetryAfter  int64   `json:"shed_retry_after"` // 429s carrying a valid Retry-After
	Expired         int64   `json:"expired"`          // 504 deadline responses
	Errors          int64   `json:"errors"`           // transport errors + unexpected statuses
	ShedRate        float64 `json:"shed_rate"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	ReloadsOK       int64   `json:"reloads_ok"`
	ReloadsFailed   int64   `json:"reloads_failed"`
	GenerationStart int64   `json:"generation_start"`
	GenerationEnd   int64   `json:"generation_end"`
	GenerationsSeen []int64 `json:"generations_seen"`
}

// loadgen drives the target server and writes the summary.
func loadgen(lc loadgenConfig) error {
	header(fmt.Sprintf("load generator → %s", lc.addr))

	// The server's own geometry defines the request payload.
	inputVol, genStart, err := getHealthz(lc.addr)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, inputVol)
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
	body, _ := json.Marshal(map[string]any{"data": data})

	var (
		requests, served, shed, shedRA, expired, errs atomic.Int64
		reloadsOK, reloadsFailed                      atomic.Int64
		genMu                                         sync.Mutex
		gens                                          = map[int64]bool{}
	)
	client := &http.Client{Timeout: 2 * time.Minute}
	deadline := time.Now().Add(lc.duration)
	stop := make(chan struct{})
	time.AfterFunc(lc.duration, func() { close(stop) })

	var reloadWG sync.WaitGroup
	if lc.reloadEvery > 0 {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			tick := time.NewTicker(lc.reloadEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					resp, err := client.Post(lc.addr+"/reload", "application/json", nil)
					if err != nil {
						reloadsFailed.Add(1)
						continue
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						reloadsOK.Add(1)
					} else {
						reloadsFailed.Add(1)
					}
				}
			}
		}()
	}

	lat := make([][]int64, lc.clients) // per-client success latencies, ns
	var wg sync.WaitGroup
	for c := 0; c < lc.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req, _ := http.NewRequest(http.MethodPost, lc.addr+"/infer", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				if lc.deadlineMs > 0 {
					req.Header.Set("X-Deadline-Ms", fmt.Sprintf("%g", lc.deadlineMs))
				}
				start := time.Now()
				resp, err := client.Do(req)
				requests.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var ir struct {
						Generation int64 `json:"generation"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
						errs.Add(1)
					} else {
						served.Add(1)
						lat[c] = append(lat[c], time.Since(start).Nanoseconds())
						genMu.Lock()
						gens[ir.Generation] = true
						genMu.Unlock()
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
					if ra := resp.Header.Get("Retry-After"); ra != "" {
						shedRA.Add(1)
					}
					// Honour a fraction of the backoff so the run keeps
					// pressure on without busy-spinning 429s.
					time.Sleep(10 * time.Millisecond)
				case http.StatusGatewayTimeout:
					expired.Add(1)
				default:
					errs.Add(1)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	reloadWG.Wait()

	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	quantile := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return float64(all[i]) / 1e6
	}

	genEnd := genStart
	if _, g, err := getHealthz(lc.addr); err == nil {
		genEnd = g
	}
	var seen []int64
	genMu.Lock()
	for g := range gens {
		seen = append(seen, g)
	}
	genMu.Unlock()
	sort.Slice(seen, func(a, b int) bool { return seen[a] < seen[b] })

	sum := loadgenSummary{
		Addr:            lc.addr,
		DurationS:       lc.duration.Seconds(),
		Clients:         lc.clients,
		Requests:        requests.Load(),
		Served:          served.Load(),
		Shed:            shed.Load(),
		ShedRetryAfter:  shedRA.Load(),
		Expired:         expired.Load(),
		Errors:          errs.Load(),
		P50Ms:           quantile(0.50),
		P99Ms:           quantile(0.99),
		ThroughputRPS:   float64(served.Load()) / lc.duration.Seconds(),
		ReloadsOK:       reloadsOK.Load(),
		ReloadsFailed:   reloadsFailed.Load(),
		GenerationStart: genStart,
		GenerationEnd:   genEnd,
		GenerationsSeen: seen,
	}
	if sum.Requests > 0 {
		sum.ShedRate = float64(sum.Shed) / float64(sum.Requests)
	}

	fmt.Printf("%-10d requests (%d clients, %v)\n", sum.Requests, sum.Clients, lc.duration)
	fmt.Printf("%-10d served   (%.1f req/s, p50 %.2f ms, p99 %.2f ms)\n",
		sum.Served, sum.ThroughputRPS, sum.P50Ms, sum.P99Ms)
	fmt.Printf("%-10d shed 429 (%.1f%%, %d with Retry-After)\n", sum.Shed, 100*sum.ShedRate, sum.ShedRetryAfter)
	fmt.Printf("%-10d expired 504, %d errors\n", sum.Expired, sum.Errors)
	if lc.reloadEvery > 0 {
		fmt.Printf("%-10d reloads ok, %d failed; generation %d → %d (served by %v)\n",
			sum.ReloadsOK, sum.ReloadsFailed, sum.GenerationStart, sum.GenerationEnd, sum.GenerationsSeen)
	}

	if lc.out != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(lc.out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", lc.out, err)
		}
		fmt.Printf("\nwrote %s\n", lc.out)
	}
	return nil
}

// getHealthz reads the two /healthz fields the load generator depends on:
// the request payload size and the model generation. The answer comes from
// outside the process, so a non-200 status or a missing field is an error,
// not a crash.
func getHealthz(addr string) (inputVolume int, generation int64, err error) {
	resp, err := http.Get(addr + "/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /healthz: status %s", resp.Status)
	}
	var h struct {
		InputVolume *int   `json:"input_volume"`
		Generation  *int64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, fmt.Errorf("GET /healthz: %w", err)
	}
	switch {
	case h.InputVolume == nil:
		return 0, 0, fmt.Errorf("GET /healthz: no input_volume field")
	case *h.InputVolume < 1:
		return 0, 0, fmt.Errorf("GET /healthz: input_volume %d", *h.InputVolume)
	case h.Generation == nil:
		return 0, 0, fmt.Errorf("GET /healthz: no generation field")
	}
	return *h.InputVolume, *h.Generation, nil
}
