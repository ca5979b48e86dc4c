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
//
// One Sum type serves tensors (New) and spectra (NewComplex); every
// spectrum buffer a complex sum consumes as a partial goes back to the pool
// of its precision, and all contributions to one sum share a layout and
// precision, or Spectrum.Add panics.
//
// The training engine does not sum this way: its node tasks add every sum
// in a fixed order, so results do not depend on which task finished first
// (package train). The package keeps the paper's algorithm, which the
// benchmark measures.
package wsum

import (
	"fmt"
	"sync"

	"znn/internal/fft"
	"znn/internal/tensor"
)

// Sum accumulates a fixed number of T values concurrently. Create one with
// New or NewComplex, call Add from any number of goroutines (collectively
// exactly `required` times), then read the result with Value on the
// goroutine that received last == true.
type Sum[T interface{ Add(T) }] struct {
	mu       sync.Mutex
	sum      T
	held     bool // the slot owns sum: a parked partial, or the result until Value
	total    int
	required int
	recycle  func(T) // what becomes of a consumed partial; nil drops it
}

// New returns a tensor summation expecting exactly required contributions.
func New(required int) *Sum[*tensor.Tensor] { return newSum[*tensor.Tensor](required, nil) }

// NewComplex returns a spectral summation expecting required contributions.
func NewComplex(required int) *Sum[fft.Spectrum] { return newSum(required, fft.Spectrum.Release) }

func newSum[T interface{ Add(T) }](required int, recycle func(T)) *Sum[T] {
	s := &Sum[T]{recycle: recycle}
	s.Reset(required)
	return s
}

// Required returns the number of contributions the sum expects.
func (s *Sum[T]) Required() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.required
}

// Add contributes v to the sum, transliterating Algorithm 4. It returns
// true for exactly one caller: the one whose contribution completed the
// sum. The caller must not use v afterwards — ownership transfers to the
// Sum (v's buffer may become the final result or be consumed as a partial).
func (s *Sum[T]) Add(v T) (last bool) {
	var zero T
	for {
		s.mu.Lock()
		vPrime, parked := s.sum, s.held
		if parked {
			s.sum = zero
		} else {
			s.sum = v
			s.total++
			last = s.total == s.required
		}
		s.held = !parked
		s.mu.Unlock()
		if !parked {
			return last
		}
		// The expensive image addition happens outside the critical
		// section, on this thread's private copy.
		v.Add(vPrime)
		if s.recycle != nil {
			s.recycle(vPrime)
		}
	}
}

// Value returns the completed sum and transfers ownership to the caller.
// It must only be called after some Add returned true.
func (s *Sum[T]) Value() T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total != s.required {
		panic(fmt.Sprintf("wsum: Value before completion (%d of %d contributions)",
			s.total, s.required))
	}
	s.held = false
	return s.sum
}

// Reset prepares the object for a new round with the given number of
// expected contributions, dropping the previous result.
func (s *Sum[T]) Reset(required int) {
	if required < 1 {
		panic(fmt.Sprintf("wsum: required must be ≥ 1, got %d", required))
	}
	var zero T
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum, s.held, s.total, s.required = zero, false, 0, required
}
