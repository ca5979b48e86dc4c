// Multiscale: the multi-scale extension shipped with the original ZNN
// (Section X, referencing [14][16]), built with the arbitrary-topology
// GraphBuilder.
//
// Two convolutional paths look at the input at different scales — a dense
// 5³ path and a sparse 3³ path whose taps span the same 5³ window at
// dilation 2 — and their outputs converge on a summing node. The paper's
// sparsity control makes the scales align without any resampling: both
// paths map 14³ → 10³.
//
// Run with:
//
//	go run ./examples/multiscale
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"znn"
	"znn/internal/tensor"
)

func main() {
	cfg := znn.Config{
		Workers: runtime.NumCPU(),
		Eta:     0.002,
		Loss:    "squared",
		Seed:    3,
	}
	b := znn.NewGraphBuilder(cfg)

	in := b.Input("in", znn.Cube(14))
	// Fine path: dense 5³ receptive field.
	fine := b.Transfer("fine/t", "relu",
		b.Conv("fine/conv", znn.Cube(5), znn.Dense(), in))
	// Coarse path: 3³ kernel at sparsity 2 — the same 5³ spatial span
	// with 27 taps instead of 125 (a scale-invariant convolution in the
	// sense of Section II-A).
	coarse := b.Transfer("coarse/t", "relu",
		b.Conv("coarse/conv", znn.Cube(3), znn.Uniform(2), in))

	if fine.Shape() != coarse.Shape() {
		log.Fatalf("path shapes diverge: %v vs %v", fine.Shape(), coarse.Shape())
	}
	fmt.Printf("fine and coarse paths both map %v → %v\n", in.Shape(), fine.Shape())

	// Convergent summation node (one node task sums both paths in a fixed
	// order), then a head producing the output.
	merged := b.Conv("merge", znn.Cube(3), znn.Dense(), fine, coarse)
	out := b.Transfer("out", "tanh", merged)
	fmt.Printf("output node %q has shape %v\n\n", out.Name(), out.Shape())

	m, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// Teach the model a fixed random mapping of one sample (capacity
	// check), reporting the decreasing loss.
	rng := rand.New(rand.NewSource(4))
	input := tensor.RandomUniform(rng, znn.Cube(14), -1, 1)
	desired := tensor.RandomUniform(rng, znn.Cube(8), -0.5, 0.5)

	fmt.Println("round    loss")
	for round := 1; round <= 120; round++ {
		loss, err := m.Train([]*znn.Tensor{input}, []*znn.Tensor{desired})
		if err != nil {
			log.Fatal(err)
		}
		if round == 1 || round%20 == 0 {
			fmt.Printf("%5d    %.6f\n", round, loss)
		}
	}

	// Inspect an intermediate representation.
	if img := m.NodeImage("coarse/t"); img != nil {
		fmt.Printf("\ncoarse path activation stats: max|v| = %.4f over %v voxels\n",
			img.MaxAbs(), img.S)
	}
}
