package wsum

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"znn/internal/tensor"
)

func TestSingleContribution(t *testing.T) {
	s := New(1)
	v := tensor.FromSlice(tensor.S3(2, 1, 1), 3, 4)
	if !s.Add(v.Clone()) {
		t.Fatal("sole Add did not report last")
	}
	if !s.Value().Equal(v) {
		t.Errorf("Value = %v, want %v", s.Value().Data, v.Data)
	}
}

func TestSequentialContributions(t *testing.T) {
	s := New(3)
	a := tensor.FromSlice(tensor.S3(2, 1, 1), 1, 2)
	b := tensor.FromSlice(tensor.S3(2, 1, 1), 10, 20)
	c := tensor.FromSlice(tensor.S3(2, 1, 1), 100, 200)
	lasts := 0
	for _, v := range []*tensor.Tensor{a, b, c} {
		if s.Add(v.Clone()) {
			lasts++
		}
	}
	if lasts != 1 {
		t.Fatalf("%d Adds reported last, want exactly 1", lasts)
	}
	want := tensor.FromSlice(tensor.S3(2, 1, 1), 111, 222)
	if !s.Value().Equal(want) {
		t.Errorf("Value = %v, want %v", s.Value().Data, want.Data)
	}
}

func TestValueBeforeCompletionPanics(t *testing.T) {
	s := New(2)
	s.Add(tensor.New(tensor.Cube(2)))
	defer func() {
		if recover() == nil {
			t.Error("Value before completion did not panic")
		}
	}()
	s.Value()
}

func TestNewPanicsOnZeroRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// concurrentSum runs `workers` goroutines each adding one integer-valued
// tensor, and checks the final value equals the exact sequential sum.
// Integer values make float addition exact regardless of order.
func concurrentSum(t *testing.T, workers int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shape := tensor.S3(5, 4, 3)
	inputs := make([]*tensor.Tensor, workers)
	want := tensor.New(shape)
	for i := range inputs {
		inputs[i] = tensor.RandomInts(rng, shape, 50)
		want.Add(inputs[i])
	}
	s := New(workers)
	var lastCount atomic.Int32
	var result *tensor.Tensor
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(v *tensor.Tensor) {
			defer wg.Done()
			<-start
			if s.Add(v) {
				lastCount.Add(1)
				result = s.Value()
			}
		}(inputs[i].Clone())
	}
	close(start)
	wg.Wait()
	if got := lastCount.Load(); got != 1 {
		t.Fatalf("%d workers reported last, want exactly 1", got)
	}
	if !result.Equal(want) {
		t.Errorf("concurrent sum differs from sequential sum (max diff %g)",
			result.MaxAbsDiff(want))
	}
}

func TestConcurrentSmall(t *testing.T)  { concurrentSum(t, 2, 1) }
func TestConcurrentMedium(t *testing.T) { concurrentSum(t, 8, 2) }
func TestConcurrentLarge(t *testing.T)  { concurrentSum(t, 64, 3) }

func TestManyRounds(t *testing.T) {
	// Stress: repeated rounds through Reset with varying worker counts.
	s := New(1)
	rng := rand.New(rand.NewSource(4))
	shape := tensor.S3(3, 3, 3)
	for round := 0; round < 30; round++ {
		workers := 1 + rng.Intn(12)
		s.Reset(workers)
		inputs := make([]*tensor.Tensor, workers)
		want := tensor.New(shape)
		for i := range inputs {
			inputs[i] = tensor.RandomInts(rng, shape, 10)
			want.Add(inputs[i])
		}
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
		if result == nil {
			t.Fatalf("round %d: no worker reported last", round)
		}
		if !result.Equal(want) {
			t.Fatalf("round %d: wrong sum", round)
		}
	}
}

func TestRequiredAccessor(t *testing.T) {
	s := New(5)
	if s.Required() != 5 {
		t.Errorf("Required = %d, want 5", s.Required())
	}
	s.Reset(2)
	if s.Required() != 2 {
		t.Errorf("Required after Reset = %d, want 2", s.Required())
	}
}
