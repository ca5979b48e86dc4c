package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"znn"
	"znn/internal/tensor"
)

// cubeReq issues one cube-API request and decodes a JSON body when there
// is one.
func cubeReq(t *testing.T, method, url string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.Unmarshal(raw, &m)
	if m == nil {
		m = map[string]any{"body": string(raw)}
	}
	return resp, m
}

// waitCube polls the job until it reports done, failing the test on a
// failed job or a stuck one.
func waitCube(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m := getJSON(t, ts.URL+"/cube/"+id)
		switch m["state"] {
		case "done":
			return m
		case "failed":
			t.Fatalf("cube job failed: %v", m["error"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("cube job %s did not finish", id)
	return nil
}

func f64Bytes(data []float64) []byte {
	out := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func f64FromBytes(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// TestCubeJobLifecycle drives the full submit → chunked upload → start →
// progress → download flow and checks the stitched volume is bitwise
// identical to single-shot inference on the same weights (direct
// convolution), plus the /stats tiler counters.
func TestCubeJobLifecycle(t *testing.T) {
	nw, err := znn.NewNetwork("C3-Trelu-C3", znn.Config{
		Width: 2, OutputPatch: 4, Workers: 2, Conv: znn.ForceDirect, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	s := newServer(nw, 2)
	ts := serveMux(s)
	defer ts.Close()

	vol := tensor.RandomUniform(rand.New(rand.NewSource(22)), tensor.Cube(9), -1, 1)
	resp, job := cubeReq(t, http.MethodPost, ts.URL+"/cube",
		[]byte(`{"shape":[9,9,9],"block":3,"k":2}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %v", resp.StatusCode, job)
	}
	id := job["id"].(string)
	if job["state"] != "uploading" || job["input_bytes"].(float64) != 9*9*9*8 {
		t.Fatalf("created job: %v", job)
	}
	if got := job["output_shape"].([]any); got[0].(float64) != 5 {
		t.Fatalf("output shape: %v", got)
	}

	// Chunked upload: split at an odd byte boundary that still lands on an
	// element edge, and verify a non-contiguous chunk is refused.
	raw := f64Bytes(vol.Data)
	cut := 8 * 100
	if resp, m := cubeReq(t, http.MethodPut, ts.URL+"/cube/"+id+"/data", raw[:cut]); resp.StatusCode != 200 ||
		m["received_bytes"].(float64) != float64(cut) || m["complete"] != false {
		t.Fatalf("first chunk: status %d, %v", resp.StatusCode, m)
	}
	if resp, _ := cubeReq(t, http.MethodPut, ts.URL+"/cube/"+id+"/data?offset=0", raw[:cut]); resp.StatusCode != http.StatusConflict {
		t.Fatalf("non-contiguous chunk: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := cubeReq(t, http.MethodPost, ts.URL+"/cube/"+id+"/start", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("start before upload completes: status %d, want 409", resp.StatusCode)
	}
	if resp, m := cubeReq(t, http.MethodPut, ts.URL+"/cube/"+id+"/data?offset="+fmt.Sprint(cut), raw[cut:]); resp.StatusCode != 200 ||
		m["complete"] != true {
		t.Fatalf("second chunk: status %d, %v", resp.StatusCode, m)
	}

	if resp, m := cubeReq(t, http.MethodPost, ts.URL+"/cube/"+id+"/start", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: status %d, %v", resp.StatusCode, m)
	}
	done := waitCube(t, ts, id)
	if done["blocks_done"] != done["blocks_total"] || done["blocks_done"].(float64) < 2 {
		t.Errorf("blocks %v/%v", done["blocks_done"], done["blocks_total"])
	}
	if done["bytes_stitched"].(float64) != 5*5*5*8 {
		t.Errorf("bytes_stitched = %v, want %d", done["bytes_stitched"], 5*5*5*8)
	}
	if done["generation"].(float64) != 1 {
		t.Errorf("generation = %v, want 1", done["generation"])
	}
	if resp, _ := cubeReq(t, http.MethodPost, ts.URL+"/cube/"+id+"/start", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double start: status %d, want 409", resp.StatusCode)
	}

	// Download and compare bitwise with single-shot inference.
	resp, err = http.Get(ts.URL + "/cube/" + id + "/output/0")
	if err != nil {
		t.Fatal(err)
	}
	outRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(outRaw) != 5*5*5*8 {
		t.Fatalf("output: status %d, %d bytes", resp.StatusCode, len(outRaw))
	}
	single, err := nw.WithInputShape(tensor.Cube(9))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Infer(vol.Clone())
	single.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f64FromBytes(outRaw) {
		if v != ref[0].Data[i] {
			t.Fatalf("voxel %d: tiled %g ≠ single-shot %g", i, v, ref[0].Data[i])
		}
	}

	// The process-wide tiler counters aggregated the job.
	st := getJSON(t, ts.URL+"/stats")
	if st["cube_jobs_done"].(float64) != 1 || st["cube_jobs_failed"].(float64) != 0 {
		t.Errorf("stats jobs: done=%v failed=%v", st["cube_jobs_done"], st["cube_jobs_failed"])
	}
	if st["cube_blocks_done"] != st["cube_blocks_total"] || st["cube_blocks_done"].(float64) < 2 {
		t.Errorf("stats blocks: %v/%v", st["cube_blocks_done"], st["cube_blocks_total"])
	}
	if st["cube_bytes_stitched"].(float64) != 5*5*5*8 {
		t.Errorf("stats cube_bytes_stitched = %v", st["cube_bytes_stitched"])
	}

	// Delete the finished job; its id disappears.
	if resp, _ := cubeReq(t, http.MethodDelete, ts.URL+"/cube/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp, _ := cubeReq(t, http.MethodGet, ts.URL+"/cube/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
	if s.cubeActive() != 0 {
		t.Errorf("cubeActive = %d after delete", s.cubeActive())
	}
}

// TestCubeJobValidation pins the submission and upload failure modes:
// malformed shapes, volumes under the FOV, byte caps, job-count shedding,
// chunk overruns, and premature downloads.
func TestCubeJobValidation(t *testing.T) {
	nw := testNet(t, 23) // C3-Trelu-C1: FOV 3
	defer nw.Close()
	s := newServer(nw, 2)
	ts := serveMux(s)
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"two extents", `{"shape":[9,9]}`, http.StatusBadRequest},
		{"under the FOV", `{"shape":[2,9,9]}`, http.StatusBadRequest},
		{"bad dtype", `{"shape":[9,9,9],"dtype":"f16"}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		// 2^22·2^22·2^20 voxels: the int64 byte count wraps to 0.
		{"byte count overflows", `{"shape":[4194304,4194304,1048576]}`, http.StatusRequestEntityTooLarge},
	} {
		if resp, m := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(tc.body)); resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, m)
		}
	}
	if resp, _ := cubeReq(t, http.MethodGet, ts.URL+"/cube/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// Byte cap: a volume over -max-cube-bytes is refused with 413.
	s.maxCubeBytes = 1 << 10
	if resp, _ := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(`{"shape":[64,64,64]}`)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over byte cap: status %d, want 413", resp.StatusCode)
	}
	s.maxCubeBytes = 1 << 30

	// Job-count admission: with the threshold at 1, a second unfinished
	// job sheds with 429 + Retry-After; deleting the first readmits.
	s.maxCubeJobs = 1
	resp, job := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(`{"shape":[5,5,5]}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first job: status %d", resp.StatusCode)
	}
	id := job["id"].(string)
	if resp, _ := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(`{"shape":[5,5,5]}`)); resp.StatusCode != http.StatusTooManyRequests ||
		resp.Header.Get("Retry-After") == "" {
		t.Errorf("second job: status %d (Retry-After %q), want 429", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// A chunk past the end of the volume is refused.
	over := make([]byte, 5*5*5*8+8)
	if resp, _ := cubeReq(t, http.MethodPut, ts.URL+"/cube/"+id+"/data", over); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overrun chunk: status %d, want 400", resp.StatusCode)
	}
	// Output before the job ran is a 409, not a hang.
	if resp, _ := cubeReq(t, http.MethodGet, ts.URL+"/cube/"+id+"/output", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("premature output: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := cubeReq(t, http.MethodDelete, ts.URL+"/cube/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete unstarted job: status %d", resp.StatusCode)
	}
	if resp, _ := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(`{"shape":[5,5,5]}`)); resp.StatusCode != http.StatusCreated {
		t.Errorf("readmission after delete: status %d", resp.StatusCode)
	}
}

// TestCubeJobOptionBounds checks the tiling options a create request
// carries: a negative block, k or window is a 400, and a (window+1)·k ring
// of block inputs over the cube byte cap is a 413, however small the
// volume. Neither stores a job.
func TestCubeJobOptionBounds(t *testing.T) {
	nw := testNet(t, 24) // C3-Trelu-C1: FOV 3
	defer nw.Close()
	s := newServer(nw, 2)
	ts := serveMux(s)
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"negative block", `{"shape":[9,9,9],"block":-1}`, http.StatusBadRequest},
		{"negative k", `{"shape":[9,9,9],"k":-2}`, http.StatusBadRequest},
		{"negative window", `{"shape":[9,9,9],"window":-1}`, http.StatusBadRequest},
		// 729 voxels, but 4097·4096 block inputs of 3³ voxels are ~3.6 GB.
		{"input ring over the cap", `{"shape":[9,9,9],"k":4096,"window":4096}`, http.StatusRequestEntityTooLarge},
	} {
		if resp, m := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(tc.body)); resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, m)
		}
	}
	s.cubeMu.Lock()
	defer s.cubeMu.Unlock()
	if n := len(s.cubeJobs); n != 0 {
		t.Fatalf("%d jobs stored by refused creates", n)
	}
}

// FuzzCubeJobRequests drives the cube-job create and chunked-upload
// handlers with fuzzed create bodies (shape, dtype, block, k, window),
// then two chunks of fuzzed length, each at a fuzzed ?offset=. No handler
// may panic or answer a status it does not document, a refused create
// stores no job, and a job never counts more bytes received than its
// volume holds. Jobs are never started, and each is deleted after its
// uploads.
func FuzzCubeJobRequests(f *testing.F) {
	for _, body := range []string{
		`{"shape":[9,9]}`,
		`{"shape":[2,9,9]}`,
		`{"shape":[9,9,9],"dtype":"f16"}`,
		`{`,
		`{"shape":[4194304,4194304,1048576]}`,
		`{"shape":[64,64,64]}`,
		`{"shape":[5,5,5]}`,
		`{"shape":[9,9,9],"block":3,"k":2}`,
		`{"shape":[8,8,8],"dtype":"f32","block":2,"window":1}`,
		`{"shape":[9,9,9],"k":4096,"window":4096}`,
	} {
		f.Add(body, uint16(800), "", uint16(5*5*5*8+8), "800")
	}
	f.Add(`{"shape":[5,5,5]}`, uint16(8), "-1", uint16(992), "x")

	nw := testNet(f, 23)
	defer nw.Close()
	s := newServer(nw, 2)
	s.maxCubeBytes = 1 << 16 // keeps every admitted job's buffers small
	mux := http.NewServeMux()
	s.cubeRoutes(mux)
	do := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	jobs := func() int {
		s.cubeMu.Lock()
		defer s.cubeMu.Unlock()
		return len(s.cubeJobs)
	}
	createOK := map[int]bool{201: true, 400: true, 413: true, 429: true}
	uploadOK := map[int]bool{200: true, 400: true, 404: true, 409: true}

	f.Fuzz(func(t *testing.T, body string, n1 uint16, off1 string, n2 uint16, off2 string) {
		before := jobs()
		rec := do(http.MethodPost, "/cube", []byte(body))
		if !createOK[rec.Code] {
			t.Fatalf("create %q: undocumented status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			if after := jobs(); after != before {
				t.Fatalf("create %q answered %d but stored a job (%d → %d)", body, rec.Code, before, after)
			}
			return
		}
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("create %q: %v", body, err)
		}
		s.cubeMu.Lock()
		job := s.cubeJobs[doc.ID]
		s.cubeMu.Unlock()
		if job == nil {
			t.Fatalf("create %q: 201 without a stored job %q", body, doc.ID)
		}
		for _, c := range []struct {
			n   uint16
			off string
		}{{n1, off1}, {n2, off2}} {
			target := "/cube/" + doc.ID + "/data"
			if c.off != "" {
				target += "?offset=" + url.QueryEscape(c.off)
			}
			rec := do(http.MethodPut, target, make([]byte, c.n))
			if !uploadOK[rec.Code] {
				t.Fatalf("upload %d bytes at offset %q: undocumented status %d: %s", c.n, c.off, rec.Code, rec.Body)
			}
			job.mu.Lock()
			received, total := job.received, job.inputBytes()
			job.mu.Unlock()
			if received > total {
				t.Fatalf("received %d of a %d-byte volume", received, total)
			}
		}
		if rec := do(http.MethodDelete, "/cube/"+doc.ID, nil); rec.Code != http.StatusNoContent {
			t.Fatalf("delete unstarted job: status %d", rec.Code)
		}
	})
}

// TestCubeJobF32 runs an f32-interchange job end to end: uploads float32
// voxels, downloads float32 voxels, and checks them against single-shot
// inference after the same round-trip quantization.
func TestCubeJobF32(t *testing.T) {
	nw, err := znn.NewNetwork("C3-Trelu-C3", znn.Config{
		Width: 2, OutputPatch: 4, Workers: 2, Conv: znn.ForceDirect, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	s := newServer(nw, 2)
	ts := serveMux(s)
	defer ts.Close()

	vol := tensor.RandomUniform(rand.New(rand.NewSource(32)), tensor.Cube(8), -1, 1)
	raw := make([]byte, 4*len(vol.Data))
	for i, v := range vol.Data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(v)))
		vol.Data[i] = float64(float32(v)) // the job computes on the quantized voxels
	}
	resp, job := cubeReq(t, http.MethodPost, ts.URL+"/cube", []byte(`{"shape":[8,8,8],"dtype":"f32","block":2,"window":1}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %v", resp.StatusCode, job)
	}
	id := job["id"].(string)
	if resp, m := cubeReq(t, http.MethodPut, ts.URL+"/cube/"+id+"/data", raw); resp.StatusCode != 200 || m["complete"] != true {
		t.Fatalf("upload: status %d, %v", resp.StatusCode, m)
	}
	if resp, _ := cubeReq(t, http.MethodPost, ts.URL+"/cube/"+id+"/start", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: status %d", resp.StatusCode)
	}
	waitCube(t, ts, id)

	resp, err = http.Get(ts.URL + "/cube/" + id + "/output")
	if err != nil {
		t.Fatal(err)
	}
	outRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(outRaw) != 4*4*4*4 {
		t.Fatalf("f32 output: %d bytes, want %d", len(outRaw), 4*4*4*4)
	}
	single, err := nw.WithInputShape(tensor.Cube(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Infer(vol)
	single.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref[0].Data {
		got := math.Float32frombits(binary.LittleEndian.Uint32(outRaw[4*i:]))
		if got != float32(ref[0].Data[i]) {
			t.Fatalf("voxel %d: %g ≠ %g", i, got, float32(ref[0].Data[i]))
		}
	}
}
