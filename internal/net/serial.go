package net

import (
	"fmt"

	"znn/internal/conv"
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
	// Per-node spectrum caches and node sums, exactly as the parallel
	// engine: the serial baseline must run the same algorithm (the paper's
	// T₁ is the serial execution of the parallel algorithm), or speedup
	// measurements against it would be skewed.
	caches := make([]conv.SpectrumCache, len(nw.G.Nodes))
	for _, n := range order {
		if !n.IsInput() {
			var sum *tensor.Tensor
			for _, part := range graph.SumParts(n.In) {
				sum = addPart(sum, forwardPart(part, imgs, caches, train))
			}
			imgs[n.ID] = sum
		}
		caches[n.ID].Reset(imgs[n.ID])
	}
	return imgs, nil
}

// forwardPart returns one part of a node's forward sum (graph.SumParts)
// through the engine's node-sum kernels.
func forwardPart(part []*graph.Edge, imgs []*tensor.Tensor, caches []conv.SpectrumCache, train bool) *tensor.Tensor {
	op, ok := part[0].Op.(*graph.ConvOp)
	if !ok {
		return part[0].Op.Forward(imgs[part[0].From.ID], &graph.FwdCtx{Infer: !train})
	}
	out := tensor.New(part[0].To.Shape)
	if op.Tr.Method().IsFFT() {
		terms := make([]conv.SpecTerm, len(part))
		for i, e := range part {
			op := e.Op.(*graph.ConvOp)
			terms[i] = conv.SpecTerm{Tr: op.Tr, Ker: op.Kernel, F: op.Tr.Spectrum(&caches[e.From.ID])}
		}
		conv.SpectralForward(out, terms, !train)
		return out
	}
	terms := make([]conv.Term, len(part))
	for i, e := range part {
		op := e.Op.(*graph.ConvOp)
		terms[i] = conv.Term{Tr: op.Tr, Img: imgs[e.From.ID], Ker: op.Kernel}
	}
	conv.SumForward(out, 0, out.S.Z, terms)
	return out
}

// backwardPart returns one part of a node's backward sum over its
// out-edges, reading each target's backward spectra or padded image.
func backwardPart(part []*graph.Edge, bwd []*tensor.Tensor, caches []conv.SpectrumCache, pads []conv.PadCache) *tensor.Tensor {
	op, ok := part[0].Op.(*graph.ConvOp)
	if !ok {
		return part[0].Op.Backward(bwd[part[0].To.ID], &graph.BwdCtx{})
	}
	out := tensor.New(part[0].From.Shape)
	if op.Tr.Method().IsFFT() {
		terms := make([]conv.SpecTerm, len(part))
		for i, e := range part {
			op := e.Op.(*graph.ConvOp)
			terms[i] = conv.SpecTerm{Tr: op.Tr, Ker: op.Kernel, F: op.Tr.Spectrum(&caches[e.To.ID])}
		}
		conv.SpectralBackward(out, terms)
		return out
	}
	terms := make([]conv.Term, len(part))
	for i, e := range part {
		op := e.Op.(*graph.ConvOp)
		terms[i] = conv.Term{Tr: op.Tr, Img: pads[e.To.ID].Get(op.Tr.Halo()), Ker: op.Kernel}
	}
	conv.SumBackward(out, 0, out.S.Z, terms)
	return out
}

// addPart adds part into sum in part order, the way the engine joins a
// node's groups; a nil sum takes the part.
func addPart(sum, part *tensor.Tensor) *tensor.Tensor {
	if sum == nil {
		return part
	}
	sum.Add(part)
	return sum
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

	order, err := nw.G.TopoSort()
	if err != nil {
		return 0, err
	}
	// Backward pass: walk nodes in reverse topological order, each node
	// summing through its out-edges (whose targets' backward images are
	// already complete) part by part, as the parallel engine groups them;
	// updates apply right after each part's backward sum (the serial
	// algorithm has no laziness).
	bwd := make([]*tensor.Tensor, len(nw.G.Nodes))
	for i, o := range nw.Outputs {
		bwd[o.ID] = grads[i]
	}
	bwdCaches := make([]conv.SpectrumCache, len(nw.G.Nodes))
	pads := make([]conv.PadCache, len(nw.G.Nodes))
	defer func() {
		for i := range pads {
			pads[i].Release()
		}
	}()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if u.IsOutput() {
			if bwd[u.ID] == nil {
				return 0, fmt.Errorf("net: output %s has no loss gradient", u.Name)
			}
		} else {
			for _, part := range graph.SumParts(u.Out) {
				for _, e := range part {
					if bwd[e.To.ID] == nil {
						return 0, fmt.Errorf("net: node %s has no backward image", e.To.Name)
					}
				}
				bwd[u.ID] = addPart(bwd[u.ID], backwardPart(part, bwd, bwdCaches, pads))
				for _, e := range part {
					if tr, ok := e.Op.(graph.Trainable); ok {
						tr.Update(imgs[u.ID], bwd[e.To.ID], opt)
					}
				}
			}
		}
		bwdCaches[u.ID].Reset(bwd[u.ID])
		pads[u.ID].Reset(bwd[u.ID])
	}
	return lossVal, nil
}
