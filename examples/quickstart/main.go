// Quickstart: build a small 3D ConvNet with the ZNN public API and train
// it to reproduce a fixed linear filter — a task with a known optimum, so
// the loss curve tells you immediately whether everything works.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"runtime"

	"znn"
	"znn/internal/data"
)

func main() {
	// A 3D network: two convolutional layers with a tanh in between.
	// Width 4 means each hidden layer holds four 3D images.
	nw, err := znn.NewNetwork("C3-Ttanh-C3", znn.Config{
		Width:       4,
		OutputPatch: 6,
		Workers:     runtime.NumCPU(),
		Eta:         0.001,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Close()

	fmt.Println(nw)
	fmt.Printf("input patch %v → output patch %v, field of view %d\n",
		nw.InputShape(), nw.OutputShape(), nw.FieldOfView())
	fmt.Printf("conv method per layer (Autotune, priced per training round): %v\n\n", nw.LayerMethods())

	// The teacher task: targets are the input filtered by a fixed, hidden
	// 5³ kernel (the network's field of view is 5, so it can match it).
	provider := data.NewTextureProvider(nw.InputShape(), 5, 7)

	fmt.Println("round    loss")
	var loss float64
	for round := 1; round <= 200; round++ {
		s := provider.Next()
		loss, err = nw.Train(s.Input, s.Desired[0])
		if err != nil {
			log.Fatal(err)
		}
		if round == 1 || round%25 == 0 {
			fmt.Printf("%5d    %.6f\n", round, loss)
		}
	}

	// Inference on a fresh sample.
	s := provider.Next()
	out, err := nw.Infer(s.Input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheld-out sample: prediction error (max abs) = %.4f\n",
		out[0].MaxAbsDiff(s.Desired[0]))
	st := nw.Stats()
	fmt.Printf("scheduler: %d tasks executed, %d updates forced inline, %d stolen, %d attached\n",
		st.Executed, st.ForcedInline, st.ForcedClaimed, st.ForcedAttached)
}
