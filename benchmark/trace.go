package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started. Parent is the span that caused this one (0 for
// none); the spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing, which is how the untraced run is written: the
// same code path, with the recorder absent.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	ops    int
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]float64{}}
}

// newOp returns the identifier the spans of one more operation share.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an interval that was measured elsewhere (the stage times the
// tiler returns) as a child span starting at its parent's start.
func (r *recorder) add(name string, parent, op int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	start := r.spans[parent-1].Start
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start, End: start + d.Nanoseconds()})
	r.mu.Unlock()
}

// count adds n to a named count, recorded at the same boundary as a span.
func (r *recorder) count(name string, n float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (children may overlap each other and
// are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	children := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			children[p.ID] = append(children[p.ID], iv{a, b})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi int64
		hi = s.Start
		for _, c := range ivs {
			if c.b <= hi {
				continue
			}
			covered += c.b - max(c.a, hi)
			hi = c.b
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceFile is what a traced run writes.
type traceFile struct {
	Workload    string             `json:"workload"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Counts      map[string]float64 `json:"counts"`
	SelfNs      map[string]int64   `json:"self_ns_by_name"`
	Spans       []span             `json:"spans"`
}

// write stores the spans, the counts and the self time summed per span name.
func (r *recorder) write(path, workload string, fp fingerprint) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	byName := map[string]int64{}
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Fingerprint: fp, Counts: r.counts, SelfNs: byName, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
