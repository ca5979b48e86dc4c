package pqueue

import (
	"container/heap"
	"sync"
	"testing"
)

// BinaryHeap is a conventional one-item-per-node priority queue: the
// reference the heap-of-lists is tested against and the baseline it is
// benchmarked against (Section VII-A). Its operations cost O(log N) in the
// number of queued tasks.
type BinaryHeap struct {
	mu  sync.Mutex
	h   pairHeap
	seq int64 // tiebreaker preserving FIFO order within a priority
}

type pair struct {
	prio int64
	seq  int64
	it   Item
}

type pairHeap []pair

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)   { *h = append(*h, x.(pair)) }
func (h *pairHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// NewBinaryHeap returns an empty binary-heap queue.
func NewBinaryHeap() *BinaryHeap { return &BinaryHeap{} }

// Push enqueues it at the given priority.
func (q *BinaryHeap) Push(priority int64, it Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	heap.Push(&q.h, pair{prio: priority, seq: q.seq, it: it})
}

// Pop removes and returns the highest-priority item (FIFO within ties).
func (q *BinaryHeap) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return nil, false
	}
	return heap.Pop(&q.h).(pair).it, true
}

// Len returns the number of queued items.
func (q *BinaryHeap) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// --- E12: heap-of-lists vs binary heap ----------------------------------

func benchQueue(b *testing.B, q Queue, distinct int) {
	const tasks = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < tasks; j++ {
			q.Push(int64(j%distinct), j)
		}
		for j := 0; j < tasks; j++ {
			q.Pop()
		}
	}
}

func BenchmarkPQueueHeapOfListsK4(b *testing.B)    { benchQueue(b, NewHeapOfLists(), 4) }
func BenchmarkPQueueBinaryHeapK4(b *testing.B)     { benchQueue(b, NewBinaryHeap(), 4) }
func BenchmarkPQueueHeapOfListsK1024(b *testing.B) { benchQueue(b, NewHeapOfLists(), 1024) }
func BenchmarkPQueueBinaryHeapK1024(b *testing.B)  { benchQueue(b, NewBinaryHeap(), 1024) }
