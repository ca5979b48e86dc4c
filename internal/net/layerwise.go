package net

import (
	"fmt"
	"sync"

	"znn/internal/graph"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// LayerwiseExecutor runs a network one topological level at a time,
// parallelizing within the level and placing a barrier between levels —
// the SIMD-style schedule of GPU frameworks ("the current GPU
// implementations employ SIMD parallelism to perform computation on one
// whole layer at a time", Section XI). Run on the same CPU as ZNN with
// direct convolution, it is the measured comparator of Figs. 8 and 9: the
// shape of ZNN-vs-layerwise across kernel and output sizes comes from
// algorithmic complexity (direct conv cost grows with the kernel volume,
// FFT conv cost does not), which survives the hardware substitution.
type LayerwiseExecutor struct {
	Net     *Network
	Workers int

	levels [][]*graph.Edge // edges grouped by the topological level of their source
}

// NewLayerwiseExecutor prepares the level schedule for a network.
func NewLayerwiseExecutor(nw *Network, workers int) (*LayerwiseExecutor, error) {
	if workers < 1 {
		return nil, fmt.Errorf("net: need ≥1 worker, got %d", workers)
	}
	order, err := nw.G.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make([]int, len(nw.G.Nodes))
	maxLevel := 0
	for _, n := range order {
		for _, e := range n.In {
			if l := level[e.From.ID] + 1; l > level[n.ID] {
				level[n.ID] = l
			}
		}
		if level[n.ID] > maxLevel {
			maxLevel = level[n.ID]
		}
	}
	levels := make([][]*graph.Edge, maxLevel+1)
	for _, e := range nw.G.Edges {
		l := level[e.To.ID]
		levels[l] = append(levels[l], e)
	}
	return &LayerwiseExecutor{Net: nw, Workers: workers, levels: levels}, nil
}

// parallelFor runs f(i) for i in [0, n) on the executor's workers with a
// barrier at the end — the level-synchronous schedule.
func (x *LayerwiseExecutor) parallelFor(n int, f func(i int)) {
	if n == 0 {
		return
	}
	workers := x.Workers
	if workers > n {
		workers = n
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Forward evaluates the network level-synchronously.
func (x *LayerwiseExecutor) Forward(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	imgs, err := x.forward(inputs)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(x.Net.Outputs))
	for i, o := range x.Net.Outputs {
		outs[i] = imgs[o.ID]
	}
	return outs, nil
}

func (x *LayerwiseExecutor) forward(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != len(x.Net.Inputs) {
		return nil, fmt.Errorf("net: got %d inputs, want %d", len(inputs), len(x.Net.Inputs))
	}
	imgs := make([]*tensor.Tensor, len(x.Net.G.Nodes))
	for i, in := range inputs {
		if in.S != x.Net.Inputs[i].Shape {
			return nil, fmt.Errorf("net: input %d shape %v, want %v", i, in.S, x.Net.Inputs[i].Shape)
		}
		imgs[x.Net.Inputs[i].ID] = in
	}
	for _, edges := range x.levels {
		outs := make([]*tensor.Tensor, len(edges))
		// Data-parallel within the level, barrier after.
		x.parallelFor(len(edges), func(i int) {
			e := edges[i]
			outs[i] = e.Op.Forward(imgs[e.From.ID], nil)
		})
		for i, e := range edges {
			if imgs[e.To.ID] == nil {
				imgs[e.To.ID] = outs[i]
			} else {
				imgs[e.To.ID].Add(outs[i])
			}
		}
	}
	return imgs, nil
}

// Round runs one full training iteration level-synchronously: forward,
// loss, backward with a barrier per level, then all updates.
func (x *LayerwiseExecutor) Round(inputs, desired []*tensor.Tensor, loss ops.Loss, opt graph.UpdateOpts) (float64, error) {
	imgs, err := x.forward(inputs)
	if err != nil {
		return 0, err
	}
	actual := make([]*tensor.Tensor, len(x.Net.Outputs))
	for i, o := range x.Net.Outputs {
		actual[i] = imgs[o.ID]
	}
	lossVal, grads := loss.Eval(actual, desired)
	bwd := make([]*tensor.Tensor, len(x.Net.G.Nodes))
	for i, o := range x.Net.Outputs {
		bwd[o.ID] = grads[i]
	}
	// Backward: levels in reverse, barrier per level.
	for li := len(x.levels) - 1; li >= 0; li-- {
		edges := x.levels[li]
		outs := make([]*tensor.Tensor, len(edges))
		x.parallelFor(len(edges), func(i int) {
			e := edges[i]
			outs[i] = e.Op.Backward(bwd[e.To.ID], nil)
		})
		for i, e := range edges {
			if bwd[e.From.ID] == nil {
				bwd[e.From.ID] = outs[i]
			} else {
				bwd[e.From.ID].Add(outs[i])
			}
		}
	}
	// Updates: one parallel pass over all trainable edges.
	var trainables []*graph.Edge
	for _, e := range x.Net.G.Edges {
		if _, ok := e.Op.(graph.Trainable); ok {
			trainables = append(trainables, e)
		}
	}
	x.parallelFor(len(trainables), func(i int) {
		e := trainables[i]
		e.Op.(graph.Trainable).Update(imgs[e.From.ID], bwd[e.To.ID], opt)
	})
	return lossVal, nil
}
