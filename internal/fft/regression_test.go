package fft

import (
	"sync"
	"testing"
)

// Concurrent creation of the same uncached plan must be safe and must
// return a working plan on every goroutine.
func TestConcurrentPlanCreation(t *testing.T) {
	// Use 5-smooth lengths no other test plans, so each starts uncached.
	lengths := []int{3750, 3840, 3888}
	for _, n := range lengths {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := NewPlan(n)
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(float64(i%7), 0)
				}
				orig := append([]complex128(nil), x...)
				p.Forward(x)
				p.Inverse(x)
				if maxErr(x, orig) > 1e-6 {
					errs <- "round trip failed"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

func TestTwiddleCachedAndCorrect(t *testing.T) {
	w := Twiddle(8)
	if &w[0] != &Twiddle(8)[0] {
		t.Error("Twiddle not cached")
	}
	// w[2] = exp(-2πi·2/8) = -i.
	if d := w[2] - complex(0, -1); real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
		t.Errorf("w[2] = %v, want -i", w[2])
	}
	defer func() {
		if recover() == nil {
			t.Error("Twiddle(0) did not panic")
		}
	}()
	Twiddle(0)
}
