// Package pqueue implements the task queue of Section VII-A of the paper.
//
// The structure is the heap-of-lists priority queue: a binary heap
// keyed by distinct priority values, each heap slot holding a FIFO list of
// tasks that share the priority. Insertion and deletion cost O(log K) where
// K is the number of distinct priorities present, instead of O(log N) in
// the number of queued tasks — a substantial saving for wide networks where
// many tasks share each priority level.
//
// The conventional binary heap that the heap-of-lists is measured against
// (BenchmarkPQueue*) and checked against (TestRandomizedAgainstReference)
// lives in the tests.
package pqueue

import (
	"container/heap"
	"sync"
)

// Item is the unit stored in a queue.
type Item any

// bucket is one heap entry: a priority and the FIFO list of items at it.
type bucket struct {
	prio  int64
	items []Item // FIFO: append at tail, take from head
	head  int    // index of the first live element in items
	index int    // heap index, maintained by heap.Interface
}

type bucketHeap []*bucket

func (h bucketHeap) Len() int           { return len(h) }
func (h bucketHeap) Less(i, j int) bool { return h[i].prio > h[j].prio } // max-heap
func (h bucketHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *bucketHeap) Push(x any)        { b := x.(*bucket); b.index = len(*h); *h = append(*h, b) }
func (h *bucketHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}

// HeapOfLists is the paper's priority queue. The zero value is ready to use.
type HeapOfLists struct {
	mu      sync.Mutex
	heap    bucketHeap
	buckets map[int64]*bucket
	n       int
}

// NewHeapOfLists returns an empty heap-of-lists queue.
func NewHeapOfLists() *HeapOfLists {
	return &HeapOfLists{buckets: map[int64]*bucket{}}
}

// Push enqueues it at the given priority.
func (q *HeapOfLists) Push(priority int64, it Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.buckets == nil {
		q.buckets = map[int64]*bucket{}
	}
	b, ok := q.buckets[priority]
	if !ok {
		b = &bucket{prio: priority}
		q.buckets[priority] = b
		heap.Push(&q.heap, b)
	}
	b.items = append(b.items, it)
	q.n++
}

// Pop removes and returns the highest-priority item; items of equal
// priority are returned in FIFO order. The paper relies on this order:
// tasks at the same distance are enqueued in the strict node ordering, so
// FIFO within a priority level executes convolutions converging on the
// same node back-to-back, improving temporal locality.
func (q *HeapOfLists) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil, false
	}
	b := q.heap[0]
	it := b.items[b.head]
	b.items[b.head] = nil
	b.head++
	q.n--
	if b.head == len(b.items) {
		heap.Pop(&q.heap)
		delete(q.buckets, b.prio)
	}
	return it, true
}

// Len returns the number of queued items.
func (q *HeapOfLists) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// DistinctPriorities returns K, the number of distinct priority levels
// currently queued (the quantity that bounds operation cost).
func (q *HeapOfLists) DistinctPriorities() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}
