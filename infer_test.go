package znn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"znn/internal/tensor"
)

// TestNetworkConcurrentInfer runs ≥8 simultaneous Infer calls on one
// Network (the serving pattern) and checks every concurrent result is
// bit-identical to a serialized Infer of the same input. Runs under the CI
// -race job.
func TestNetworkConcurrentInfer(t *testing.T) {
	n, err := NewNetwork("C3-Ttanh-C3", Config{
		Width: 2, OutputPatch: 6, Workers: 4, Seed: 21, Conv: ForceFFT,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rng := rand.New(rand.NewSource(22))
	// A little training first, so inference runs against non-initial
	// weights with updates pending at the training→serving transition.
	in := tensor.RandomUniform(rng, n.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, n.OutputShape(), -0.5, 0.5)
	for i := 0; i < 3; i++ {
		if _, err := n.Train(in.Clone(), des.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	const nInputs = 4
	inputs := make([]*Tensor, nInputs)
	want := make([]*Tensor, nInputs)
	for i := range inputs {
		inputs[i] = tensor.RandomUniform(rng, n.InputShape(), -1, 1)
	}
	// Serialized reference first: the first Infer drains the pending
	// updates.
	for i := range inputs {
		outs, err := n.Infer(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0]
	}

	const goroutines = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	diffs := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % nInputs
				outs, err := n.Infer(inputs[i])
				if err != nil {
					errs <- err
					return
				}
				if !outs[0].Equal(want[i]) {
					diffs <- i
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	close(diffs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range diffs {
		t.Fatalf("concurrent Infer on input %d differs from serialized Infer", i)
	}
}

// TestNetworkInferBatch checks the batched serving entry point: one K-wide
// fused round returns per-volume outputs in order, bit-identical to
// one-at-a-time inference, on an FFT and an autotuned (direct) network,
// including from concurrent callers (runs under the CI -race job).
func TestNetworkInferBatch(t *testing.T) {
	for _, tc := range []struct {
		spec string
		cfg  Config
	}{
		{"C3-Ttanh-C3", Config{Width: 2, OutputPatch: 6, Workers: 4, Seed: 41, Conv: ForceFFT}},
		{"C3-Trelu-C1", Config{Width: 2, OutputPatch: 5, Workers: 4, Seed: 31}},
	} {
		n, err := NewNetwork(tc.spec, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()

		rng := rand.New(rand.NewSource(42))
		const k = 4
		batch := make([][]*Tensor, k)
		want := make([]*Tensor, k)
		for i := range batch {
			batch[i] = []*Tensor{tensor.RandomUniform(rng, n.InputShape(), -1, 1)}
			outs, err := n.Infer(batch[i]...)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = outs[0]
		}

		const goroutines = 4
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs, err := n.InferBatch(batch)
				if err != nil {
					errs <- err
					return
				}
				if len(outs) != k {
					errs <- fmt.Errorf("InferBatch returned %d volumes, want %d", len(outs), k)
					return
				}
				for i := range outs {
					if len(outs[i]) != 1 || !outs[i][0].Equal(want[i]) {
						errs <- fmt.Errorf("%s: batch output %d differs from serial Infer", tc.spec, i)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
