package mempool

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClassFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestGetReturnsZeroedSlice(t *testing.T) {
	var p Float64Pool
	a := p.Get(10)
	if len(a) != 10 || cap(a) != 16 {
		t.Fatalf("Get(10): len=%d cap=%d, want len=10 cap=16", len(a), cap(a))
	}
	for i := range a {
		a[i] = float64(i + 1)
	}
	p.Put(a)
	b := p.Get(12) // same class; must be cleared
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused chunk not zeroed at %d: %v", i, v)
		}
	}
}

func TestGetZeroLength(t *testing.T) {
	var p Float64Pool
	if got := p.Get(0); got != nil {
		t.Errorf("Get(0) = %v, want nil", got)
	}
	p.Put(nil) // must not panic
}

func TestReuseSameClass(t *testing.T) {
	var p Float64Pool
	a := p.Get(100) // class 7, cap 128
	p.Put(a)
	b := p.Get(65) // class 7 as well
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want 128", cap(b))
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestDistinctClassesDoNotShare(t *testing.T) {
	var p Float64Pool
	p.Put(p.Get(16)) // class 4
	got := p.Get(17) // class 5: must miss
	if cap(got) != 32 {
		t.Fatalf("cap = %d, want 32", cap(got))
	}
	if st := p.Stats(); st.Hits != 0 {
		t.Errorf("unexpected cross-class hit: %+v", st)
	}
}

func TestPutForeignSlicePanics(t *testing.T) {
	var p Float64Pool
	defer func() {
		if recover() == nil {
			t.Error("Put of non-power-of-two-capacity slice did not panic")
		}
	}()
	p.Put(make([]float64, 10, 10))
}

func TestStatsAccounting(t *testing.T) {
	var p Float64Pool
	a := p.Get(8) // 8 elems, cap 8 = 64 bytes live
	if st := p.Stats(); st.LiveBytes != 64 || st.PoolBytes != 0 {
		t.Errorf("after Get: %+v", st)
	}
	p.Put(a)
	if st := p.Stats(); st.LiveBytes != 0 || st.PoolBytes != 64 {
		t.Errorf("after Put: %+v", st)
	}
	_ = p.Get(8)
	if st := p.Stats(); st.LiveBytes != 64 || st.PoolBytes != 0 || st.Hits != 1 {
		t.Errorf("after re-Get: %+v", st)
	}
}

func TestComplexPool(t *testing.T) {
	var p Complex128Pool
	a := p.Get(5)
	if len(a) != 5 || cap(a) != 8 {
		t.Fatalf("Get(5): len=%d cap=%d", len(a), cap(a))
	}
	a[0] = 3 + 4i
	p.Put(a)
	b := p.Get(8)
	if b[0] != 0 {
		t.Error("reused complex chunk not zeroed")
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var p Float64Pool
	var wg sync.WaitGroup
	const workers = 8
	const rounds = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := 1 + (w*31+i*17)%1000
				buf := p.Get(n)
				if len(buf) != n {
					t.Errorf("len = %d, want %d", len(buf), n)
					return
				}
				for j := range buf {
					if buf[j] != 0 {
						t.Errorf("non-zero voxel in fresh chunk")
						return
					}
				}
				buf[0] = float64(w)
				p.Put(buf)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.LiveBytes != 0 {
		t.Errorf("leaked %d live bytes", st.LiveBytes)
	}
	if st.Hits+st.Misses != workers*rounds {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*rounds)
	}
}

func TestTreiberStackLIFO(t *testing.T) {
	var s stack[int]
	if _, ok := s.pop(); ok {
		t.Error("pop from empty stack succeeded")
	}
	s.push(1)
	s.push(2)
	s.push(3)
	for _, want := range []int{3, 2, 1} {
		got, ok := s.pop()
		if !ok || got != want {
			t.Fatalf("pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := s.pop(); ok {
		t.Error("stack not empty after draining")
	}
}

func TestTreiberStackConcurrent(t *testing.T) {
	var s stack[int]
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.push(base + i)
			}
		}(w * perWorker)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for {
		v, ok := s.pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("popped %d values, want %d", len(seen), workers*perWorker)
	}
}

// Property: round-tripping any request size through the pool preserves
// length and zeroing.
func TestQuickRoundTrip(t *testing.T) {
	var p Float64Pool
	f := func(n uint16) bool {
		size := int(n%4096) + 1
		buf := p.Get(size)
		ok := len(buf) == size && cap(buf) >= size
		for i := range buf {
			if buf[i] != 0 {
				ok = false
			}
			buf[i] = 1
		}
		p.Put(buf)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPeakLiveBytes(t *testing.T) {
	var p Complex128Pool
	a := p.Get(100) // class 128 → 2048 bytes
	b := p.Get(100)
	if got := p.Stats().PeakLiveBytes; got != 2*128*16 {
		t.Errorf("peak with two live chunks = %d, want %d", got, 2*128*16)
	}
	p.Put(a)
	p.Put(b)
	if got := p.Stats().PeakLiveBytes; got != 2*128*16 {
		t.Errorf("peak must not drop on Put: got %d", got)
	}
	if got := p.Stats().LiveBytes; got != 0 {
		t.Errorf("live after Put = %d, want 0", got)
	}
	// A smaller subsequent episode must not move the old high-water mark
	// until ResetPeak rebases it.
	c := p.Get(10)
	if got := p.Stats().PeakLiveBytes; got != 2*128*16 {
		t.Errorf("peak after smaller episode = %d, want %d", got, 2*128*16)
	}
	p.ResetPeak()
	if got := p.Stats().PeakLiveBytes; got != 16*16 {
		t.Errorf("peak after ResetPeak with one live chunk = %d, want %d", got, 16*16)
	}
	p.Put(c)
}

// GetUncleared hands back a reused chunk as its last user left it, and a
// new one zeroed; Get clears a reused chunk.
func TestGetUncleared(t *testing.T) {
	var p Float64Pool
	if b := p.GetUncleared(5); len(b) != 5 || cap(b) != 8 || b[4] != 0 {
		t.Fatalf("fresh GetUncleared: len %d cap %d b[4] %v", len(b), cap(b), b[4])
	}
	b := p.Get(5)
	b[4] = 3
	p.Put(b)
	if b := p.GetUncleared(6); b[4] != 3 {
		t.Fatalf("GetUncleared cleared a reused chunk: b[4] = %v", b[4])
	} else {
		p.Put(b)
	}
	if b := p.Get(6); b[4] != 0 {
		t.Fatalf("Get left a reused chunk dirty: b[4] = %v", b[4])
	}
	if s := p.Stats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats %+v, want 2 hits and 2 misses", s)
	}
}
