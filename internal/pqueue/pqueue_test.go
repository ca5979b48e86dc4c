package pqueue

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// queues under test: the heap-of-lists and its binary-heap reference.
func allQueues() map[string]func() queue {
	return map[string]func() queue{
		"heapoflists": func() queue { return NewHeapOfLists() },
		"binaryheap":  func() queue { return NewBinaryHeap() },
	}
}

func TestEmptyPop(t *testing.T) {
	for name, mk := range allQueues() {
		q := mk()
		if _, ok := q.Pop(); ok {
			t.Errorf("%s: Pop on empty queue returned ok", name)
		}
		if q.Len() != 0 {
			t.Errorf("%s: empty queue has Len %d", name, q.Len())
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	for _, mk := range allQueues() {
		q := mk()
		prios := []int64{3, 1, 4, 1, 5, 9, 2, 6}
		for i, p := range prios {
			q.Push(p, i)
		}
		sorted := append([]int64(nil), prios...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for _, want := range sorted {
			it, ok := q.Pop()
			if !ok {
				t.Fatal("queue drained early")
			}
			got := prios[it.(int)]
			if got != want {
				t.Fatalf("popped priority %d, want %d", got, want)
			}
		}
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	for _, mk := range allQueues() {
		q := mk()
		// Two priorities interleaved; within each, insertion order must hold.
		q.Push(1, "a1")
		q.Push(2, "b1")
		q.Push(1, "a2")
		q.Push(2, "b2")
		q.Push(1, "a3")
		want := []string{"b1", "b2", "a1", "a2", "a3"}
		for _, w := range want {
			it, _ := q.Pop()
			if it.(string) != w {
				t.Fatalf("pop = %v, want %v", it, w)
			}
		}
	}
}

func TestLenTracking(t *testing.T) {
	for name, mk := range allQueues() {
		q := mk()
		for i := 0; i < 5; i++ {
			q.Push(int64(i), i)
			if q.Len() != i+1 {
				t.Errorf("%s: Len after %d pushes = %d", name, i+1, q.Len())
			}
		}
		for i := 4; i >= 0; i-- {
			q.Pop()
			if q.Len() != i {
				t.Errorf("%s: Len after pop = %d, want %d", name, q.Len(), i)
			}
		}
	}
}

func TestDistinctPriorities(t *testing.T) {
	q := NewHeapOfLists()
	for i := 0; i < 100; i++ {
		q.Push(int64(i%4), i)
	}
	if got := q.DistinctPriorities(); got != 4 {
		t.Errorf("DistinctPriorities = %d, want 4", got)
	}
	if q.Len() != 100 {
		t.Errorf("Len = %d, want 100", q.Len())
	}
	// Draining one full priority level removes its bucket.
	for i := 0; i < 25; i++ {
		q.Pop() // drains all of priority 3 first
	}
	if got := q.DistinctPriorities(); got != 3 {
		t.Errorf("DistinctPriorities after draining one level = %d, want 3", got)
	}
}

func TestHeapOfListsZeroValue(t *testing.T) {
	var q HeapOfLists
	q.Push(1, "x")
	if it, ok := q.Pop(); !ok || it.(string) != "x" {
		t.Error("zero-value HeapOfLists unusable")
	}
}

func TestNegativePriorities(t *testing.T) {
	q := NewHeapOfLists()
	q.Push(-5, "low")
	q.Push(0, "mid")
	q.Push(7, "high")
	want := []string{"high", "mid", "low"}
	for _, w := range want {
		it, _ := q.Pop()
		if it.(string) != w {
			t.Fatalf("pop = %v, want %v", it, w)
		}
	}
}

func TestRandomizedAgainstReference(t *testing.T) {
	// The heap-of-lists must behave exactly like the simple binary heap
	// (which preserves FIFO-within-priority) on any operation sequence.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a, b := NewHeapOfLists(), NewBinaryHeap()
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				ia, oka := a.Pop()
				ib, okb := b.Pop()
				if oka != okb || (oka && ia.(int) != ib.(int)) {
					t.Fatalf("trial %d op %d: pop mismatch %v,%v vs %v,%v",
						trial, op, ia, oka, ib, okb)
				}
			} else {
				p := int64(rng.Intn(8))
				v := op
				a.Push(p, v)
				b.Push(p, v)
			}
			if a.Len() != b.Len() {
				t.Fatalf("length mismatch %d vs %d", a.Len(), b.Len())
			}
		}
	}
}

func TestConcurrentPushPop(t *testing.T) {
	for name, mk := range allQueues() {
		q := mk()
		const producers = 4
		const perProducer = 500
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(base int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					q.Push(int64(i%7), base+i)
				}
			}(p * perProducer)
		}
		var mu sync.Mutex
		seen := map[int]bool{}
		var cg sync.WaitGroup
		stop := make(chan struct{})
		for c := 0; c < 4; c++ {
			cg.Add(1)
			go func() {
				defer cg.Done()
				for {
					it, ok := q.Pop()
					if ok {
						mu.Lock()
						v := it.(int)
						if seen[v] {
							t.Errorf("%s: value %d popped twice", name, v)
						}
						seen[v] = true
						mu.Unlock()
						continue
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		wg.Wait()
		// Drain: wait until consumers have taken everything.
		for q.Len() > 0 {
		}
		close(stop)
		cg.Wait()
		// Final sweep for stragglers.
		for {
			it, ok := q.Pop()
			if !ok {
				break
			}
			seen[it.(int)] = true
		}
		if len(seen) != producers*perProducer {
			t.Errorf("%s: received %d items, want %d", name, len(seen), producers*perProducer)
		}
	}
}
