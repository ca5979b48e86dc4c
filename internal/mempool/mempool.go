// Package mempool implements ZNN's pooled memory allocators
// (Section VII-C of the paper).
//
// The paper maintains 32 global pools of memory chunks, pool i holding
// chunks of 2^i bytes, with lock-free queues for the free lists; memory is
// never returned to the system, trading at most a 2x space overhead for
// allocation speed. This package reproduces that design with one generic
// size-classed pool, Pool[T], instantiated per element type of the
// dtype-parameterized pipeline — float64 images plus complex128 and
// complex64 spectra (images stay float64 end to end; the float32 path
// converts inside the fft line passes): requests round up to the next
// power of two and free lists are lock-free Treiber stacks (Go's GC
// eliminates the ABA hazard the original's boost::lockfree queues must
// guard against).
package mempool

import (
	"math/bits"
	"sync/atomic"
)

// numClasses mirrors the paper's 32 power-of-two pools.
const numClasses = 32

// Element is the constraint on pooled slice element types: exactly the
// four builtin types (no ~), because byte accounting identifies the
// element size by type assertion.
type Element interface {
	float32 | float64 | complex64 | complex128
}

// Stats reports allocator behaviour for the pool benchmarks (experiment E13).
type Stats struct {
	Hits          int64 // Get calls satisfied from a free list
	Misses        int64 // Get calls that had to allocate
	Puts          int64 // chunks returned
	LiveBytes     int64 // bytes currently handed out
	PeakLiveBytes int64 // high-water mark of LiveBytes since the last ResetPeak
	PoolBytes     int64 // bytes parked in free lists
}

// Pool is a size-classed pool of []T chunks.
type Pool[T Element] struct {
	classes [numClasses]stack[[]T]
	stats   statCounters
}

// Float64Pool is a size-classed pool of []float64 chunks.
type Float64Pool = Pool[float64]

// Complex128Pool is a size-classed pool of []complex128 chunks (used for
// FFT work buffers).
type Complex128Pool = Pool[complex128]

// Complex64Pool is a size-classed pool of []complex64 chunks (Hermitian-
// packed float32 spectra — same coefficient counts as Complex128Pool at
// half the bytes).
type Complex64Pool = Pool[complex64]

type statCounters struct {
	hits, misses, puts atomic.Int64
	liveBytes          atomic.Int64
	peakLiveBytes      atomic.Int64
	poolBytes          atomic.Int64
}

// grow adds delta (> 0) to the live-byte gauge and ratchets the high-water
// mark. The peak is what sizes real deployments — the allocator never
// returns memory to the system, so peak live bytes is the steady-state
// footprint of the spectra working set (the number the packed r2c pipeline
// halved, and the float32 path halves again).
func (c *statCounters) grow(delta int64) {
	v := c.liveBytes.Add(delta)
	for {
		p := c.peakLiveBytes.Load()
		if v <= p || c.peakLiveBytes.CompareAndSwap(p, v) {
			return
		}
	}
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Puts:          c.puts.Load(),
		LiveBytes:     c.liveBytes.Load(),
		PeakLiveBytes: c.peakLiveBytes.Load(),
		PoolBytes:     c.poolBytes.Load(),
	}
}

// resetPeak restarts high-water tracking from the current live level, so a
// measurement can scope the peak to one phase.
func (c *statCounters) resetPeak() {
	c.peakLiveBytes.Store(c.liveBytes.Load())
}

// classFor returns the size class for a request of n elements: the smallest
// i with 2^i ≥ n.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ClassSize returns the chunk capacity (in elements) that a Get of n
// elements actually reserves: n rounded up to the next power of two. The
// execution planner's byte model uses it so estimated footprints account
// for the same rounding the allocator applies — LiveBytes moves in class
// capacities, not request lengths.
func ClassSize(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << classFor(n)
}

// elemBytes returns the size of one element of type T.
func elemBytes[T Element]() int64 {
	var z T
	switch any(z).(type) {
	case float32:
		return 4
	case float64, complex64:
		return 8
	default: // complex128
		return 16
	}
}

// Get returns a zeroed slice of length n backed by a chunk of capacity
// 2^class. The chunk may be reused; contents are always cleared before
// return so callers can rely on zero initialization exactly as with make.
func (p *Pool[T]) Get(n int) []T { return p.get(n, true) }

// GetUncleared is Get without the clear: a reused chunk keeps what its last
// user left in it. It is for callers that write every element before they
// read any, such as a forward transform into a spectrum buffer.
func (p *Pool[T]) GetUncleared(n int) []T { return p.get(n, false) }

func (p *Pool[T]) get(n int, zero bool) []T {
	if n == 0 {
		return nil
	}
	cls := classFor(n)
	cap := 1 << cls
	p.stats.grow(int64(cap) * elemBytes[T]())
	if buf, ok := p.classes[cls].pop(); ok {
		p.stats.hits.Add(1)
		p.stats.poolBytes.Add(-int64(cap) * elemBytes[T]())
		buf = buf[:n]
		if zero {
			clear(buf)
		}
		return buf
	}
	p.stats.misses.Add(1)
	return make([]T, n, cap)
}

// Put returns a chunk to the pool. The slice must have been obtained from
// Get (its capacity must be a power of two); Put never returns memory to
// the runtime, matching the paper's allocator.
func (p *Pool[T]) Put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	cls := classFor(cap(buf))
	if 1<<cls != cap(buf) {
		panic("mempool: Put of slice with non-power-of-two capacity")
	}
	p.stats.puts.Add(1)
	p.stats.liveBytes.Add(-int64(cap(buf)) * elemBytes[T]())
	p.stats.poolBytes.Add(int64(cap(buf)) * elemBytes[T]())
	p.classes[cls].push(buf[:cap(buf)])
}

// Stats returns a snapshot of the allocator counters.
func (p *Pool[T]) Stats() Stats { return p.stats.snapshot() }

// ResetPeak restarts the PeakLiveBytes high-water mark from the current
// live level.
func (p *Pool[T]) ResetPeak() { p.stats.resetPeak() }

// stack is a lock-free Treiber stack. Nodes are heap-allocated per push;
// the garbage collector reclaims them, which also removes the ABA problem.
type stack[T any] struct {
	head atomic.Pointer[node[T]]
}

type node[T any] struct {
	v    T
	next *node[T]
}

func (s *stack[T]) push(v T) {
	n := &node[T]{v: v}
	for {
		old := s.head.Load()
		n.next = old
		if s.head.CompareAndSwap(old, n) {
			return
		}
	}
}

func (s *stack[T]) pop() (T, bool) {
	for {
		old := s.head.Load()
		if old == nil {
			var zero T
			return zero, false
		}
		if s.head.CompareAndSwap(old, old.next) {
			return old.v, true
		}
	}
}

// Default pools shared by the runtime, mirroring the paper's two global
// allocators (one for large 3D images, one for small auxiliary buffers —
// here the split is by element type instead of alignment). The two spectra
// pools — one per precision — keep the float32 path's footprint measurable
// independently of the float64 one; images stay float64 end to end (the
// reduced-precision path converts inside the transform line passes, so no
// float32 image pool is needed).
var (
	Images    Float64Pool
	Spectra   Complex128Pool
	Spectra32 Complex64Pool
)
