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
// One Sum type serves tensors (New, Get) and the spectra of spectral mode
// (NewComplex, GetComplex), where edges converging on a node sum their
// FFT-domain products before a single inverse transform (Table II's forward
// cost). Spectra come from the pool of their precision, and every buffer a
// spectral sum consumes goes back to it; all contributions to one sum share
// a layout and precision (SpectralEligible), or Spectrum.Add panics.
package wsum

import (
	"fmt"
	"sync"

	"znn/internal/fft"
	"znn/internal/tensor"
)

// Sum accumulates a fixed number of T values concurrently. Create one with
// New or NewComplex (or Get/GetComplex from the free list), call Add from
// any number of goroutines (collectively exactly `required` times), then
// read the result with Value on the goroutine that received last == true.
type Sum[T interface{ Add(T) }] struct {
	mu       sync.Mutex
	sum      T
	held     bool // the slot owns sum: a parked partial, or the result until Value
	total    int
	required int
	kind     *kind[T]
}

// kind holds what differs between element types: the free list of Sum
// objects, and what becomes of a buffer the sum consumes (nil drops it).
type kind[T interface{ Add(T) }] struct {
	free    sync.Pool
	recycle func(T)
}

// Per-round sums come from free lists rather than being reset in place, so
// concurrent rounds get private accumulators without allocation churn.
var (
	tensors = &kind[*tensor.Tensor]{}
	spectra = &kind[fft.Spectrum]{recycle: fft.Spectrum.Release}
)

// get returns a Sum reset to expect required contributions, from the free
// list when pooled is set.
func (k *kind[T]) get(required int, pooled bool) (s *Sum[T]) {
	if pooled {
		s, _ = k.free.Get().(*Sum[T])
	}
	if s == nil {
		s = &Sum[T]{kind: k}
	}
	s.Reset(required)
	return s
}

// New returns a tensor summation expecting exactly required contributions.
func New(required int) *Sum[*tensor.Tensor] { return tensors.get(required, false) }

// Get returns a tensor Sum from the package free list, reset to expect
// required contributions. Pair with Release when the round completes.
func Get(required int) *Sum[*tensor.Tensor] { return tensors.get(required, true) }

// NewComplex returns a spectral summation expecting required contributions.
func NewComplex(required int) *Sum[fft.Spectrum] { return spectra.get(required, false) }

// GetComplex returns a spectral Sum from the free list, reset to expect
// required contributions. Pair with Release when the round completes.
func GetComplex(required int) *Sum[fft.Spectrum] { return spectra.get(required, true) }

// Release returns the object to its free list. A buffer still parked in
// the slot (an abandoned round that never reached Value) is recycled like
// a consumed partial; a completed sum holds nothing, because Value
// transfers the buffer out.
func (s *Sum[T]) Release() {
	s.mu.Lock()
	held, ok := s.sum, s.held
	s.mu.Unlock()
	s.Reset(1)
	if ok && s.kind.recycle != nil {
		s.kind.recycle(held)
	}
	s.kind.free.Put(s)
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
		if s.kind.recycle != nil {
			s.kind.recycle(vPrime)
		}
	}
}

// Value returns the completed sum and transfers ownership to the caller,
// so a later Release does not recycle it. It must only be called after
// some Add returned true.
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
