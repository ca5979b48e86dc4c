package net

import (
	"fmt"

	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/graph"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// ForwardSerial evaluates the network on a single goroutine by walking the
// graph in topological order. It is the reference implementation that the
// parallel engine is validated against, and doubles as the T₁ measurement
// baseline for the speedup experiments (the "serial algorithm" of
// Section VIII).
//
// It runs inference semantics, like the engine's inference rounds: dropout
// is the identity and no op stores Jacobian state, so repeated calls agree
// bitwise and leave the next training round unchanged. The ops are stateful
// on training rounds, so a network must not be trained serially and by a
// train.Engine at the same time.
func (nw *Network) ForwardSerial(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	imgs, err := nw.forwardSerial(inputs, false)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(nw.Outputs))
	for i, o := range nw.Outputs {
		outs[i] = imgs[o.ID]
	}
	return outs, nil
}

// forwardSerial runs the forward pass; train selects training semantics
// (dropout masks, Jacobian state for the backward pass that follows).
func (nw *Network) forwardSerial(inputs []*tensor.Tensor, train bool) ([]*tensor.Tensor, error) {
	if len(inputs) != len(nw.Inputs) {
		return nil, fmt.Errorf("net: got %d inputs, want %d", len(inputs), len(nw.Inputs))
	}
	imgs := make([]*tensor.Tensor, len(nw.G.Nodes))
	for i, in := range inputs {
		if in.S != nw.Inputs[i].Shape {
			return nil, fmt.Errorf("net: input %d shape %v, want %v", i, in.S, nw.Inputs[i].Shape)
		}
		imgs[nw.Inputs[i].ID] = in
	}
	order, err := nw.G.TopoSort()
	if err != nil {
		return nil, err
	}
	// Per-node spectrum caches and spectral accumulation, exactly as the
	// parallel engine: the serial baseline must run the same algorithm
	// (the paper's T₁ is the serial execution of the parallel algorithm),
	// or speedup measurements against it would be skewed.
	caches := make([]conv.SpectrumCache, len(nw.G.Nodes))
	for _, n := range order {
		if n.IsInput() {
			caches[n.ID].Reset(imgs[n.ID])
			continue
		}
		var sum *tensor.Tensor
		if len(n.In) > 1 && graph.SpectralEligible(n.In) {
			var spec fft.Spectrum
			for _, e := range n.In {
				op := e.Op.(*graph.ConvOp)
				in := []*tensor.Tensor{imgs[e.From.ID]}
				prod := op.Tr.ForwardProducts(in, op.Kernel, &caches[e.From.ID], !train)[0]
				if spec.IsNil() {
					spec = prod
				} else {
					spec.Add(prod)
					prod.Release()
				}
			}
			sum = n.In[0].Op.(*graph.ConvOp).Tr.FinishForward(spec)
		} else {
			for _, e := range n.In {
				out := e.Op.Forward(imgs[e.From.ID], &graph.FwdCtx{Spectra: &caches[e.From.ID], Infer: !train})
				if sum == nil {
					sum = out
				} else {
					sum.Add(out)
				}
			}
		}
		imgs[n.ID] = sum
		caches[n.ID].Reset(sum)
	}
	return imgs, nil
}

// RoundSerial runs one full gradient iteration serially (forward, loss,
// backward, immediate updates), the reference for the parallel engine and
// the T₁ baseline for speedup measurements. It returns the loss.
func (nw *Network) RoundSerial(inputs, desired []*tensor.Tensor, loss ops.Loss, opt graph.UpdateOpts) (float64, error) {
	imgs, err := nw.forwardSerial(inputs, true)
	if err != nil {
		return 0, err
	}
	actual := make([]*tensor.Tensor, len(nw.Outputs))
	for i, o := range nw.Outputs {
		actual[i] = imgs[o.ID]
	}
	lossVal, grads := loss.Eval(actual, desired)

	// Backward pass in reverse topological order, accumulating per-node
	// backward images; updates apply immediately after each edge's
	// gradient is available (the serial algorithm has no laziness).
	order, err := nw.G.TopoSort()
	if err != nil {
		return 0, err
	}
	// Backward pass: walk nodes in reverse topological order, each node
	// pulling through its out-edges (whose targets' backward images are
	// already complete). Spectral accumulation applies under the same
	// eligibility rule as the parallel engine; updates apply immediately
	// after each edge's backward transform (the serial algorithm has no
	// laziness).
	bwd := make([]*tensor.Tensor, len(nw.G.Nodes))
	for i, o := range nw.Outputs {
		bwd[o.ID] = grads[i]
	}
	bwdCaches := make([]conv.SpectrumCache, len(nw.G.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if u.IsOutput() {
			if bwd[u.ID] == nil {
				return 0, fmt.Errorf("net: output %s has no loss gradient", u.Name)
			}
			bwdCaches[u.ID].Reset(bwd[u.ID])
			continue
		}
		spectral := len(u.Out) > 1 && graph.SpectralEligible(u.Out)
		var spec fft.Spectrum
		for _, e := range u.Out {
			g := bwd[e.To.ID]
			if g == nil {
				return 0, fmt.Errorf("net: node %s has no backward image", e.To.Name)
			}
			if spectral {
				op := e.Op.(*graph.ConvOp)
				prod := op.Tr.BackwardProduct(g, op.Kernel, &bwdCaches[e.To.ID])
				if spec.IsNil() {
					spec = prod
				} else {
					spec.Add(prod)
					prod.Release()
				}
			} else {
				out := e.Op.Backward(g, &graph.BwdCtx{Spectra: &bwdCaches[e.To.ID]})
				if bwd[u.ID] == nil {
					bwd[u.ID] = out
				} else {
					bwd[u.ID].Add(out)
				}
			}
			if tr, ok := e.Op.(graph.Trainable); ok {
				tr.Update(imgs[u.ID], g, opt)
			}
		}
		if spectral {
			bwd[u.ID] = u.Out[0].Op.(*graph.ConvOp).Tr.FinishBackward(spec)
		}
		bwdCaches[u.ID].Reset(bwd[u.ID])
	}
	return lossVal, nil
}
