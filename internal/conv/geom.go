package conv

import "znn/internal/tensor"

// LayerGeom describes one fully connected convolutional layer for the
// execution planner: f input nodes, fPrime output nodes, input image shape,
// kernel shape and sparsity. Density is the mean nonzero fraction of the
// layer's kernels in (0, 1]; zero means unknown and is treated as dense. It
// feeds Direct's cost, which charges the forward and backward passes only
// for the nonzero taps the tap-list kernel runs.
type LayerGeom struct {
	In      tensor.Shape
	Kernel  tensor.Shape
	Sp      tensor.Sparsity
	F       int     // input width
	FPrime  int     // output width
	Density float64 // mean kernel nonzero fraction; 0 = unknown (dense)
}

// TransformShape returns the common FFT shape the spectral methods would
// use for this layer (exported for the execution planner's byte model).
func (g LayerGeom) TransformShape() tensor.Shape {
	return transformShape(g.In, g.Kernel, g.Sp)
}
