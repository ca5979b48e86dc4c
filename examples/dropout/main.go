// Dropout: the dropout extension shipped with the original ZNN
// (Section X, referencing Srivastava et al. 2014).
//
// A deliberately over-parameterized network is trained on a handful of
// fixed samples, with and without a dropout layer; the run prints train
// loss against held-out loss for both, showing dropout's regularization
// effect. Masks are redrawn per round during training and disabled at
// inference (inverted dropout keeps activations calibrated).
//
// Run with:
//
//	go run ./examples/dropout
package main

import (
	"fmt"
	"log"
	"runtime"

	"znn"
	"znn/internal/data"
)

func run(spec string, label string) (trainLoss, testLoss float64) {
	nw, err := znn.NewNetwork(spec, znn.Config{
		Width:       8,
		OutputPatch: 4,
		Workers:     runtime.NumCPU(),
		Eta:         0.01,
		Loss:        "squared",
		Seed:        5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Close()

	provider := data.NewTextureProviderCropped(nw.InputShape(), 3, nw.OutputShape(), 11)
	// A tiny fixed training set invites overfitting.
	var trainSet []data.Sample
	for i := 0; i < 4; i++ {
		trainSet = append(trainSet, provider.Next())
	}

	for round := 0; round < 400; round++ {
		s := trainSet[round%len(trainSet)]
		if _, err := nw.Train(s.Input, s.Desired[0]); err != nil {
			log.Fatal(err)
		}
	}

	// Evaluate with Infer, where dropout is the identity.
	mse := func(s data.Sample) float64 {
		out, err := nw.Infer(s.Input)
		if err != nil {
			log.Fatal(err)
		}
		diff := out[0].Clone()
		diff.Sub(s.Desired[0])
		return diff.Dot(diff) / float64(diff.S.Volume())
	}
	for _, s := range trainSet {
		trainLoss += mse(s) / float64(len(trainSet))
	}
	const heldOut = 8
	for i := 0; i < heldOut; i++ {
		testLoss += mse(provider.Next()) / heldOut
	}
	fmt.Printf("%-16s train MSE %.5f   held-out MSE %.5f   (gap %.2fx)\n",
		label, trainLoss, testLoss, testLoss/trainLoss)
	return trainLoss, testLoss
}

func main() {
	fmt.Println("over-parameterized net, 4 training samples, 400 rounds:")
	_, plain := run("C3-Trelu-C3-Ttanh", "no dropout")
	_, dropped := run("C3-Trelu-D0.7-C3-Ttanh", "dropout 0.7")
	if dropped < plain {
		fmt.Printf("\ndropout reduced held-out MSE by %.1f%%\n", 100*(1-dropped/plain))
	} else {
		fmt.Println("\n(on this seed dropout did not help; try more rounds)")
	}
}
