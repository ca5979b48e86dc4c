package net

import (
	"fmt"
	"math/rand"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// BuildOptions parameterizes network construction.
type BuildOptions struct {
	// Width is f, the number of nodes in every hidden conv layer.
	Width int
	// InWidth is the number of input nodes (default 1).
	InWidth int
	// OutWidth is the number of output nodes produced by the final conv
	// layer (default 1).
	OutWidth int
	// Dims is 2 or 3 (2 builds x×y×1 images, the paper's 2D case).
	Dims int
	// OutputExtent is the isotropic output patch extent; the input extent
	// is derived from the spec. Exactly one of OutputExtent, InputExtent
	// or InputShape must be set.
	OutputExtent int
	// InputExtent sets the input extent directly.
	InputExtent int
	// InputShape sets the input image shape directly, possibly
	// anisotropic — the tiler builds block networks this way, so a thin
	// volume (e.g. 7×96×96) gets a block shaped like the volume instead
	// of being forced through its smallest axis. Layer windows stay
	// isotropic; only the image extents differ per axis. In 2D the Z
	// extent must be 1.
	InputShape tensor.Shape
	// Tuner decides direct vs FFT per conv layer. Nil uses TuneModel.
	Tuner *conv.Autotuner
	// Memoize enables FFT memoization on conv edges.
	Memoize bool
	// Counters receives convolution work counts (may be nil).
	Counters *conv.Counters
	// Seed drives parameter initialization; equal seeds and specs build
	// identical parameters.
	Seed int64
}

func (o *BuildOptions) fillDefaults() error {
	if o.Width < 1 {
		return fmt.Errorf("net: width must be ≥ 1, got %d", o.Width)
	}
	if o.InWidth == 0 {
		o.InWidth = 1
	}
	if o.OutWidth == 0 {
		o.OutWidth = 1
	}
	if o.Dims == 0 {
		o.Dims = 3
	}
	if o.Dims != 2 && o.Dims != 3 {
		return fmt.Errorf("net: dims must be 2 or 3, got %d", o.Dims)
	}
	set := 0
	if o.OutputExtent != 0 {
		set++
	}
	if o.InputExtent != 0 {
		set++
	}
	if o.InputShape.Valid() {
		set++
	}
	if set != 1 {
		return fmt.Errorf("net: exactly one of OutputExtent, InputExtent or InputShape must be set")
	}
	if o.InputShape.Valid() && o.Dims == 2 && o.InputShape.Z != 1 {
		return fmt.Errorf("net: 2D InputShape must have Z extent 1, got %v", o.InputShape)
	}
	if o.Tuner == nil {
		o.Tuner = &conv.Autotuner{}
	}
	return nil
}

// isoShape returns the isotropic shape of the given extent in o.Dims
// dimensions.
func (o *BuildOptions) isoShape(n int) tensor.Shape {
	if o.Dims == 2 {
		return tensor.S3(n, n, 1)
	}
	return tensor.Cube(n)
}

// isoWindow converts a layer window to a shape, with z extent 1 in 2D.
func (o *BuildOptions) isoWindow(k int) tensor.Shape {
	if o.Dims == 2 {
		return tensor.S3(k, k, 1)
	}
	return tensor.Cube(k)
}

// Network is a built layered ConvNet.
type Network struct {
	G       *graph.Graph
	Spec    Spec
	Opts    BuildOptions
	Inputs  []*graph.Node
	Outputs []*graph.Node

	// convLayers[i] lists the conv edges of the i-th conv layer in
	// deterministic (output-major, input-minor) order; transferEdges
	// likewise per transfer layer. Used for parameter access.
	convLayers     [][]*graph.ConvOp
	transferLayers [][]*graph.TransferOp
	// Methods chosen by the autotuner per conv layer.
	LayerMethods []conv.Method
	// layerGeoms[i] is the i-th conv layer's tuning geometry as built
	// (Density unset; LayerGeoms fills it from the live kernels).
	layerGeoms []conv.LayerGeom
}

// LayerGeoms returns one LayerGeom per conv layer in execution order, with
// Density recomputed from the current kernels (mean nonzero fraction over
// the layer's edges) — the execution planner's view of the network.
func (nw *Network) LayerGeoms() []conv.LayerGeom {
	out := make([]conv.LayerGeom, len(nw.layerGeoms))
	for i, g := range nw.layerGeoms {
		var d float64
		for _, op := range nw.convLayers[i] {
			d += conv.Density(op.Kernel)
		}
		if n := len(nw.convLayers[i]); n > 0 {
			g.Density = d / float64(n)
		}
		out[i] = g
	}
	return out
}

// LayerGeomsFor walks the spec at a given (possibly anisotropic) input
// shape and returns the per-conv-layer tuning geometries without building
// a graph — the execution planner's view of a candidate block network.
// Widths and dimensionality follow o; its extent fields are ignored in
// favour of in. Density is left unset (treated as dense); callers planning
// against a trained network graft the live densities from
// Network.LayerGeoms, whose layer order matches.
func LayerGeomsFor(spec Spec, o BuildOptions, in tensor.Shape) ([]conv.LayerGeom, error) {
	o.InputShape = in
	o.OutputExtent, o.InputExtent = 0, 0
	if err := o.fillDefaults(); err != nil {
		return nil, err
	}
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("net: empty spec")
	}
	if _, err := spec.OutputShape(in, o.Dims); err != nil {
		return nil, err
	}
	lastConv := -1
	for i, l := range spec.Layers {
		if l.Kind == ConvLayer {
			lastConv = i
		}
	}
	shape := in
	curWidth := o.InWidth
	sparsity := 1
	var out []conv.LayerGeom
	for li, l := range spec.Layers {
		switch l.Kind {
		case ConvLayer:
			width := o.Width
			if li == lastConv {
				width = o.OutWidth
			}
			k := o.isoWindow(l.Window)
			sp := o.isoSparsity(sparsity)
			out = append(out, conv.LayerGeom{In: shape, Kernel: k, Sp: sp, F: curWidth, FPrime: width})
			outShape := shape.ValidConv(k, sp)
			if !outShape.Valid() {
				return nil, fmt.Errorf("net: layer %d: kernel %v (sparsity %v) does not fit image %v",
					li, k, sp, shape)
			}
			shape, curWidth = outShape, width
		case PoolLayer:
			shape = shape.Div(o.isoWindow(l.Window))
		case FilterLayer:
			w := o.isoWindow(l.Window)
			sp := o.isoSparsity(sparsity)
			outShape := shape.ValidConv(w, sp)
			if !outShape.Valid() {
				return nil, fmt.Errorf("net: layer %d: filter %v (sparsity %v) does not fit image %v",
					li, w, sp, shape)
			}
			shape = outShape
			sparsity *= l.Window
		}
	}
	return out, nil
}

// Build constructs the network graph for a spec.
func Build(spec Spec, o BuildOptions) (*Network, error) {
	if err := o.fillDefaults(); err != nil {
		return nil, err
	}
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("net: empty spec")
	}
	var shape tensor.Shape
	if o.InputShape.Valid() {
		shape = o.InputShape
		if _, err := spec.OutputShape(shape, o.Dims); err != nil {
			return nil, err
		}
	} else {
		inExtent := o.InputExtent
		if inExtent == 0 {
			var err error
			inExtent, err = spec.InputExtent(o.OutputExtent)
			if err != nil {
				return nil, err
			}
		}
		if _, err := spec.OutputExtent(inExtent); err != nil {
			return nil, err
		}
		shape = o.isoShape(inExtent)
	}

	rng := rand.New(rand.NewSource(o.Seed))
	g := graph.New()
	nw := &Network{G: g, Spec: spec, Opts: o}
	cur := make([]*graph.Node, o.InWidth)
	for i := range cur {
		cur[i] = g.AddNode(fmt.Sprintf("input/%d", i), shape)
	}
	nw.Inputs = cur

	// The width of each conv layer: hidden layers use Width; the final
	// conv layer uses OutWidth.
	lastConv := -1
	for i, l := range spec.Layers {
		if l.Kind == ConvLayer {
			lastConv = i
		}
	}

	sparsity := 1
	for li, l := range spec.Layers {
		switch l.Kind {
		case ConvLayer:
			width := o.Width
			if li == lastConv {
				width = o.OutWidth
			}
			k := o.isoWindow(l.Window)
			sp := o.isoSparsity(sparsity)
			geom := conv.LayerGeom{In: shape, Kernel: k, Sp: sp, F: len(cur), FPrime: width}
			method := o.Tuner.Choose(geom)
			nw.LayerMethods = append(nw.LayerMethods, method)
			nw.layerGeoms = append(nw.layerGeoms, geom)
			outShape := shape.ValidConv(k, sp)
			if !outShape.Valid() {
				return nil, fmt.Errorf("net: layer %d: kernel %v (sparsity %v) does not fit image %v",
					li, k, sp, shape)
			}
			next := make([]*graph.Node, width)
			var layerOps []*graph.ConvOp
			for j := 0; j < width; j++ {
				next[j] = g.AddNode(fmt.Sprintf("L%d/conv/%d", li, j), outShape)
				for _, u := range cur {
					kernel := graph.InitKernel(rng, k, len(cur))
					op := graph.NewConvOpPrec(shape, kernel, sp, method, o.Tuner.Precision,
						o.Memoize, o.Counters)
					g.Connect(u, next[j], op)
					layerOps = append(layerOps, op)
				}
			}
			nw.convLayers = append(nw.convLayers, layerOps)
			cur, shape = next, outShape

		case TransferLayer:
			f, err := ops.TransferByName(l.Transfer)
			if err != nil {
				return nil, fmt.Errorf("net: layer %d: %w", li, err)
			}
			next := make([]*graph.Node, len(cur))
			var layerOps []*graph.TransferOp
			for j, u := range cur {
				next[j] = g.AddNode(fmt.Sprintf("L%d/t/%d", li, j), shape)
				op := graph.NewTransferOp(f, 0)
				g.Connect(u, next[j], op)
				layerOps = append(layerOps, op)
			}
			nw.transferLayers = append(nw.transferLayers, layerOps)
			cur = next

		case PoolLayer:
			w := o.isoWindow(l.Window)
			outShape := shape.Div(w)
			next := make([]*graph.Node, len(cur))
			for j, u := range cur {
				next[j] = g.AddNode(fmt.Sprintf("L%d/pool/%d", li, j), outShape)
				g.Connect(u, next[j], graph.NewMaxPoolOp(w))
			}
			cur, shape = next, outShape

		case FilterLayer:
			w := o.isoWindow(l.Window)
			sp := o.isoSparsity(sparsity)
			outShape := shape.ValidConv(w, sp)
			if !outShape.Valid() {
				return nil, fmt.Errorf("net: layer %d: filter %v (sparsity %v) does not fit image %v",
					li, w, sp, shape)
			}
			next := make([]*graph.Node, len(cur))
			for j, u := range cur {
				next[j] = g.AddNode(fmt.Sprintf("L%d/filt/%d", li, j), outShape)
				g.Connect(u, next[j], graph.NewMaxFilterOp(w, sp))
			}
			cur, shape = next, outShape
			sparsity *= l.Window

		case DropoutLayer:
			next := make([]*graph.Node, len(cur))
			for j, u := range cur {
				next[j] = g.AddNode(fmt.Sprintf("L%d/drop/%d", li, j), shape)
				g.Connect(u, next[j], graph.NewDropoutOp(l.Keep, rng.Int63()))
			}
			cur = next
		}
	}
	nw.Outputs = cur
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return nw, nil
}

// isoSparsity returns the isotropic sparsity in the build dimensionality.
func (o *BuildOptions) isoSparsity(s int) tensor.Sparsity {
	if o.Dims == 2 {
		return tensor.Sparsity{X: s, Y: s, Z: 1}
	}
	return tensor.Uniform(s)
}

// InputShape returns the shape of the network's input images.
func (nw *Network) InputShape() tensor.Shape { return nw.Inputs[0].Shape }

// OutputShape returns the shape of the network's output images.
func (nw *Network) OutputShape() tensor.Shape { return nw.Outputs[0].Shape }

// Params flattens all trainable parameters (conv kernels then biases,
// layer by layer in build order) into one slice.
func (nw *Network) Params() []float64 {
	var p []float64
	for _, layer := range nw.convLayers {
		for _, op := range layer {
			p = append(p, op.Kernel.Data...)
		}
	}
	for _, layer := range nw.transferLayers {
		for _, op := range layer {
			p = append(p, op.Bias)
		}
	}
	return p
}

// SetParams installs a parameter vector produced by Params on a network of
// identical structure, invalidating cached kernel spectra.
func (nw *Network) SetParams(p []float64) error {
	i := 0
	for _, layer := range nw.convLayers {
		for _, op := range layer {
			n := len(op.Kernel.Data)
			if i+n > len(p) {
				return fmt.Errorf("net: parameter vector too short")
			}
			copy(op.Kernel.Data, p[i:i+n])
			op.Tr.InvalidateKernel()
			i += n
		}
	}
	for _, layer := range nw.transferLayers {
		for _, op := range layer {
			if i >= len(p) {
				return fmt.Errorf("net: parameter vector too short")
			}
			op.Bias = p[i]
			i++
		}
	}
	if i != len(p) {
		return fmt.Errorf("net: parameter vector has %d extra values", len(p)-i)
	}
	return nil
}

// NumParams returns the total count of trainable scalars.
func (nw *Network) NumParams() int {
	n := 0
	for _, layer := range nw.convLayers {
		for _, op := range layer {
			n += len(op.Kernel.Data)
		}
	}
	for _, layer := range nw.transferLayers {
		n += len(layer)
	}
	return n
}

// ConvEdgeCount returns the number of convolution edges, the dominant task
// count per round.
func (nw *Network) ConvEdgeCount() int {
	n := 0
	for _, layer := range nw.convLayers {
		n += len(layer)
	}
	return n
}
