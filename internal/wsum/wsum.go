// Package wsum implements the almost wait-free concurrent summation of
// Section VII-B (Algorithm 4) of the paper.
//
// When multiple convolutions converge on one node of the computation graph,
// their results must be accumulated into a single image. The naive approach
// holds a lock for the duration of each image addition, making critical
// section time scale with image volume n³. Algorithm 4 keeps only pointer
// operations inside the critical section: each thread repeatedly tries to
// park its pointer in the shared slot; on failure it takes the parked image
// instead, adds it into its own outside the lock, and retries. The thread
// that contributes the final addition observes total == required and
// reports completion, at which point the slot holds the full sum.
package wsum

import (
	"fmt"
	"sync"

	"znn/internal/tensor"
)

// Sum accumulates a fixed number of tensors concurrently. Create one with
// New, call Add from any number of goroutines (collectively exactly
// `required` times), then read the result with Value on the goroutine that
// received last == true.
type Sum struct {
	mu       sync.Mutex
	sum      *tensor.Tensor
	total    int
	required int
}

// New returns a summation object expecting exactly required contributions.
func New(required int) *Sum {
	if required < 1 {
		panic(fmt.Sprintf("wsum: required must be ≥ 1, got %d", required))
	}
	return &Sum{required: required}
}

// sumPool recycles Sum objects across rounds. Rounds used to reset one
// engine-owned Sum per node in place, which pinned the engine to a single
// round in flight; per-round sums come from this free list instead, so N
// concurrent rounds each get private accumulators without allocation churn.
var sumPool = sync.Pool{New: func() any { return &Sum{} }}

// Get returns a Sum from the package free list, reset to expect required
// contributions. Pair with Release when the round completes.
func Get(required int) *Sum {
	s := sumPool.Get().(*Sum)
	s.Reset(required)
	return s
}

// Release drops the Sum's tensor reference (ownership of the completed
// value has passed to the caller of Value) and returns the object to the
// free list.
func (s *Sum) Release() {
	s.mu.Lock()
	s.sum = nil
	s.total = 0
	s.required = 1
	s.mu.Unlock()
	sumPool.Put(s)
}

// Required returns the number of contributions the sum expects.
func (s *Sum) Required() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.required
}

// Add contributes v to the sum, transliterating Algorithm 4. It returns
// true for exactly one caller: the one whose contribution completed the
// sum. The caller must not use v afterwards — ownership transfers to the
// Sum (v's buffer may become the final result or be consumed as a partial).
func (s *Sum) Add(v *tensor.Tensor) (last bool) {
	var vPrime *tensor.Tensor
	for {
		s.mu.Lock()
		if s.sum == nil {
			s.sum = v
			v = nil
			s.total++
			last = s.total == s.required
		} else {
			vPrime = s.sum
			s.sum = nil
		}
		s.mu.Unlock()
		if v == nil {
			return last
		}
		// The expensive image addition happens outside the critical
		// section, on this thread's private copy.
		v.Add(vPrime)
	}
}

// Value returns the accumulated tensor. It must only be called after some
// Add returned true; the result is the completed sum.
func (s *Sum) Value() *tensor.Tensor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total != s.required {
		panic(fmt.Sprintf("wsum: Value before completion (%d of %d contributions)",
			s.total, s.required))
	}
	return s.sum
}

// Reset prepares the object for a new round with the given number of
// expected contributions, releasing the previous result.
func (s *Sum) Reset(required int) {
	if required < 1 {
		panic(fmt.Sprintf("wsum: required must be ≥ 1, got %d", required))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum = nil
	s.total = 0
	s.required = required
}
