package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"znn"
)

const (
	serveSpec = "C5-Trelu-C3-Ttanh"
	// clients is the size of the closed loop: each client sends its next
	// request when the previous one has returned.
	clients = 2
	// requestRing is how many distinct seeded inputs the clients cycle through.
	requestRing = 16
	// responseTol bounds the difference between a response and in-process
	// inference on the same checkpoint.
	responseTol = 1e-9
	// readyTimeout bounds the wait for /healthz; requestTimeout one request.
	readyTimeout   = 30 * time.Second
	requestTimeout = 10 * time.Second
)

// wireVolume is one volume of znn-serve's JSON API.
type wireVolume struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

type wireResponse struct {
	Outputs []wireVolume `json:"outputs"`
}

// serveInst drives a znn-serve child process over loopback.
type serveInst struct {
	c        *runCtx
	dir      string
	binary   string
	ckpt     string
	ckptSize int64
	saveMs   float64
	bodies   [][]byte      // the request ring, encoded once
	expected []*znn.Tensor // in-process inference on the same checkpoint
	outVox   int

	child *child
}

// child is a running znn-serve. exited closes when the process has ended,
// however it ended, so no caller waits on a dead server.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *bytes.Buffer
}

func startServe(c *runCtx) (instance, error) {
	dir, err := os.MkdirTemp(c.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	atExit(func() { os.RemoveAll(dir) })
	t := &serveInst{c: c, dir: dir, binary: filepath.Join(dir, "znn-serve"), ckpt: filepath.Join(dir, "model.ckpt")}

	build := exec.Command("go", "build", "-o", t.binary, "./cmd/znn-serve")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/znn-serve: %v\n%s", err, out)
	}

	nw, err := znn.NewNetwork(serveSpec, znn.Config{Width: c.scaled(8, 2), OutputPatch: c.scaled(16, 4), Workers: workers, Seed: c.seed})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = nw.SaveFile(t.ckpt)
	t.saveMs = 1e3 * time.Since(t0).Seconds()
	nw.Close()
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(t.ckpt)
	if err != nil {
		return nil, err
	}
	t.ckptSize = st.Size()

	// The expected outputs come from the checkpoint, not from the network
	// that wrote it: what is checked is what the server was given.
	loaded, err := znn.LoadFile(t.ckpt, workers)
	if err != nil {
		return nil, err
	}
	defer loaded.Close()
	t.outVox = loaded.OutputShape().Volume()
	rng := rand.New(rand.NewSource(c.seed))
	for i := 0; i < requestRing; i++ {
		in := znn.NewTensor(loaded.InputShape())
		for j := range in.Data {
			in.Data[j] = rng.Float64()*2 - 1
		}
		body, err := json.Marshal(wireVolume{Shape: []int{in.S.X, in.S.Y, in.S.Z}, Data: in.Data})
		if err != nil {
			return nil, err
		}
		outs, err := loaded.Infer(in)
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, body)
		t.expected = append(t.expected, outs[0])
	}
	if c.corrupt {
		t.expected[0].Data[0] += 1e-3
	}
	return t, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (t *serveInst) launch() (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	ch := &child{base: "http://" + addr, exited: make(chan struct{}), log: &bytes.Buffer{}}
	ch.cmd = exec.Command(t.binary, "-addr", addr, "-checkpoint", t.ckpt,
		"-workers", fmt.Sprint(workers), "-max-batch", "4")
	ch.cmd.Stdout, ch.cmd.Stderr = ch.log, ch.log
	if err := ch.cmd.Start(); err != nil {
		return nil, err
	}
	atExit(ch.stop)
	go func() {
		ch.cmd.Wait()
		close(ch.exited)
	}()
	return ch, nil
}

// stop ends the child: SIGTERM, then SIGKILL if it has not gone in 5 s.
func (ch *child) stop() {
	select {
	case <-ch.exited:
		return
	default:
	}
	ch.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-ch.exited:
	case <-time.After(5 * time.Second):
		ch.cmd.Process.Kill()
		<-ch.exited
	}
}

// ready polls /healthz until it answers 200, the child dies, or the
// timeout passes.
func (ch *child) ready(client *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(ch.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ch.exited:
			return fmt.Errorf("znn-serve exited before it was ready:\n%s", ch.log)
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("znn-serve not ready after %v:\n%s", readyTimeout, ch.log)
}

// request posts ring entry i and reads the whole body: the timed part of a
// request. Any status but 200 is an error.
func (t *serveInst) request(client *http.Client, base string, i int) ([]byte, error) {
	resp, err := client.Post(base+"/infer", "application/json", bytes.NewReader(t.bodies[i]))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// matches decodes a response and compares it with the expected output.
func (t *serveInst) matches(body []byte, i int) error {
	var r wireResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	want := t.expected[i]
	if len(r.Outputs) != 1 || len(r.Outputs[0].Data) != len(want.Data) {
		return errors.New("response has the wrong shape")
	}
	for j, v := range r.Outputs[0].Data {
		if d := v - want.Data[j]; d > responseTol || d < -responseTol {
			return fmt.Errorf("response to input %d differs from in-process inference by %.3g at voxel %d", i, d, j)
		}
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// setup execs the server and completes one request: checkpoint load,
// network build, listen, /healthz, first inference.
func (t *serveInst) setup() (float64, error) {
	if t.child != nil {
		t.child.stop()
	}
	client := newClient()
	defer client.CloseIdleConnections()
	t0 := time.Now()
	ch, err := t.launch()
	if err != nil {
		return 0, err
	}
	t.child = ch
	if err := ch.ready(client); err != nil {
		return 0, err
	}
	// The timed requests check every response; this one only has to arrive.
	if _, err := t.request(client, ch.base, 0); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// warm runs the loop untimed; what fails here fails in the timed section
// too, where it is counted.
func (t *serveInst) warm() error {
	t.load(time.Duration(t.c.scaled(500, 20))*time.Millisecond, nil, 0)
	return nil
}

func (t *serveInst) stats() (map[string]any, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(t.child.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// num reads a number out of decoded JSON, by path.
func num(m map[string]any, path ...string) float64 {
	var v any = m
	for _, k := range path {
		mm, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = mm[k]
	}
	f, _ := v.(float64)
	return f
}

// cpuSeconds is the processor time the child has used so far.
func (ch *child) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", ch.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields 14 and 15, counted after the parenthesised command name.
	i := bytes.LastIndexByte(data, ')')
	fields := bytes.Fields(data[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0
	}
	var utime, stime float64
	fmt.Sscan(string(fields[11]), &utime)
	fmt.Sscan(string(fields[12]), &stime)
	return (utime + stime) / 100 // USER_HZ is 100 on every Linux the Go toolchain supports
}

func (t *serveInst) measure(d time.Duration, _ int, rec *recorder, parent int) section {
	if rec == nil {
		return t.load(d, nil, 0)
	}
	before, _ := t.stats()
	cpu0 := t.child.cpuSeconds()
	s := t.load(d, rec, parent)
	cpu1 := t.child.cpuSeconds()
	after, err := t.stats()
	if err != nil {
		return s
	}
	served := num(after, "served") - num(before, "served")
	if served < 1 {
		served = 1
	}
	delta := func(path ...string) float64 { return num(after, path...) - num(before, path...) }
	var misses, spectra float64
	for _, pool := range []string{"pool_images", "pool_spectra", "pool_spectra_f32"} {
		misses += delta(pool, "misses")
		if pool != "pool_images" {
			spectra += delta(pool, "hits") + delta(pool, "misses")
		}
	}
	s.counts = map[string]float64{
		"sched.cpu_util":              (cpu1 - cpu0) / (s.busy * workers),
		"mempool.peak_live_mb":        (num(after, "pool_images", "peak_live_bytes") + num(after, "pool_spectra", "peak_live_bytes") + num(after, "pool_spectra_f32", "peak_live_bytes")) / 1e6,
		"mempool.miss_per_op":         misses / served,
		"mempool.spectra_gets_per_op": spectra / served,
		"serve.infer_ms":              num(after, "infer_ms_ew"),
		"serve.overhead_ms":           1e3*median(s.lat) - num(after, "infer_ms_ew"),
		"serve.batch_width_mean":      num(after, "batch_width_mean"),
		"serve.shed":                  delta("shed"),
	}
	return s
}

// load runs the closed loop for d: each client posts, reads, checks, and
// posts again. A request that errors, times out, is refused or answers
// wrongly is a failure. Once the server has died every further request
// fails at once, so a client then paces itself instead of spinning.
func (t *serveInst) load(d time.Duration, rec *recorder, parent int) section {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var mu sync.Mutex
	var s section
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for n := 0; ctx.Err() == nil; n++ {
				i := (c + clients*n) % len(t.bodies)
				op := rec.begin("op", parent, rec.newOp())
				sp := rec.begin("http.request", op, 0)
				start := time.Now()
				body, err := t.request(client, t.child.base, i)
				dt := time.Since(start).Seconds()
				rec.end(sp)
				if err == nil {
					sp = rec.begin("check", op, 0)
					err = t.matches(body, i)
					rec.end(sp)
				}
				rec.end(op)
				mu.Lock()
				s.attempted++
				if err != nil {
					s.failed++
				} else {
					s.lat = append(s.lat, dt)
					s.voxels += float64(t.outVox)
				}
				mu.Unlock()
				if err != nil {
					select {
					case <-ctx.Done():
					case <-time.After(10 * time.Millisecond):
					}
				}
			}
		}(c)
	}
	wg.Wait()
	s.busy = time.Since(t0).Seconds()
	return s
}

func (t *serveInst) verify() []check {
	// Every response was compared as it arrived; a mismatch is a failed
	// request. What is left to check is that the server is still the one
	// that was started.
	select {
	case <-t.child.exited:
		return []check{okCheck("server_alive", false, "znn-serve exited during the run:\n%s", t.child.log)}
	default:
		return []check{okCheck("server_alive", true, "every response compared with in-process inference, tolerance %.3g", responseTol)}
	}
}

func (t *serveInst) layers(rec *recorder, parent int) (map[string]float64, error) {
	m := map[string]float64{
		"znn.checkpoint_save_ms": t.saveMs,
		"znn.checkpoint_bytes":   float64(t.ckptSize),
	}
	var err error
	m["znn.checkpoint_load_ms"] = 1e3 * timeCalls(rec, parent, "znn.checkpoint_load_ms", t.c.scaled(5, 1), 0, nil, func() {
		nw, e := znn.LoadFile(t.ckpt, workers)
		if e != nil {
			err = e
			return
		}
		nw.Close()
	}).median
	return m, err
}

func (t *serveInst) close() {
	if t.child != nil {
		t.child.stop()
	}
	os.RemoveAll(t.dir)
}
