package wsum

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"znn/internal/tensor"
)

// LockedSum is the naive summation Algorithm 4 is tested and benchmarked
// against (experiment E11): the whole image addition happens inside the
// critical section, so lock hold time scales with image volume.
type LockedSum struct {
	mu       sync.Mutex
	sum      *tensor.Tensor
	total    int
	required int
}

// NewLocked returns a naive locked summation expecting required
// contributions.
func NewLocked(required int) *LockedSum {
	if required < 1 {
		panic(fmt.Sprintf("wsum: required must be ≥ 1, got %d", required))
	}
	return &LockedSum{required: required}
}

// Add contributes v under the lock, returning true for the completing call.
func (s *LockedSum) Add(v *tensor.Tensor) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sum == nil {
		s.sum = v
	} else {
		s.sum.Add(v)
	}
	s.total++
	return s.total == s.required
}

// Value returns the accumulated tensor after completion.
func (s *LockedSum) Value() *tensor.Tensor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total != s.required {
		panic(fmt.Sprintf("wsum: Value before completion (%d of %d contributions)",
			s.total, s.required))
	}
	return s.sum
}

func TestLockedSumMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shape := tensor.S3(4, 4, 4)
	const workers = 16
	inputs := make([]*tensor.Tensor, workers)
	want := tensor.New(shape)
	for i := range inputs {
		inputs[i] = tensor.RandomInts(rng, shape, 20)
		want.Add(inputs[i])
	}
	s := NewLocked(workers)
	var result *tensor.Tensor
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(v *tensor.Tensor) {
			defer wg.Done()
			if s.Add(v) {
				mu.Lock()
				result = s.Value()
				mu.Unlock()
			}
		}(inputs[i].Clone())
	}
	wg.Wait()
	if !result.Equal(want) {
		t.Error("LockedSum result differs from sequential sum")
	}
}

func TestLockedValueBeforeCompletionPanics(t *testing.T) {
	s := NewLocked(2)
	s.Add(tensor.New(tensor.Cube(2)))
	defer func() {
		if recover() == nil {
			t.Error("LockedSum.Value before completion did not panic")
		}
	}()
	s.Value()
}

// --- E11: wait-free vs locked summation ---------------------------------

func benchSum(b *testing.B, waitFree bool, adders int) {
	shape := tensor.Cube(32)
	rng := rand.New(rand.NewSource(7))
	inputs := make([]*tensor.Tensor, adders)
	for i := range inputs {
		inputs[i] = tensor.RandomUniform(rng, shape, -1, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		if waitFree {
			s := New(adders)
			for j := 0; j < adders; j++ {
				wg.Add(1)
				go func(v *tensor.Tensor) {
					defer wg.Done()
					s.Add(v)
				}(inputs[j].Clone())
			}
		} else {
			s := NewLocked(adders)
			for j := 0; j < adders; j++ {
				wg.Add(1)
				go func(v *tensor.Tensor) {
					defer wg.Done()
					s.Add(v)
				}(inputs[j].Clone())
			}
		}
		wg.Wait()
	}
}

func BenchmarkWaitFreeSum8(b *testing.B)  { benchSum(b, true, 8) }
func BenchmarkLockedSum8(b *testing.B)    { benchSum(b, false, 8) }
func BenchmarkWaitFreeSum32(b *testing.B) { benchSum(b, true, 32) }
func BenchmarkLockedSum32(b *testing.B)   { benchSum(b, false, 32) }
