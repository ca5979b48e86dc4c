// Package net builds layered ConvNets over the computation graph: a
// compact layer-spec DSL, the fully connected layer constructor used by
// all of the paper's benchmarks, the max-pooling → max-filtering + sparse
// convolution transform of Fig. 2 (skip-kernels / filter rarefaction), and
// a serial reference executor used to validate the parallel engine.
package net

import (
	"fmt"
	"strconv"
	"strings"

	"znn/internal/tensor"
)

// LayerKind enumerates layer types of the spec DSL.
type LayerKind int

const (
	// ConvLayer is a fully connected convolutional layer.
	ConvLayer LayerKind = iota
	// TransferLayer applies bias + nonlinearity to every node.
	TransferLayer
	// PoolLayer is non-overlapping max-pooling (sliding-window networks
	// convert these to FilterLayers).
	PoolLayer
	// FilterLayer is sliding max-filtering.
	FilterLayer
	// DropoutLayer applies dropout to every node.
	DropoutLayer
)

func (k LayerKind) String() string {
	switch k {
	case ConvLayer:
		return "C"
	case TransferLayer:
		return "T"
	case PoolLayer:
		return "P"
	case FilterLayer:
		return "M"
	case DropoutLayer:
		return "D"
	default:
		return "?"
	}
}

// LayerSpec describes one layer.
type LayerSpec struct {
	Kind     LayerKind
	Window   int     // isotropic kernel/window extent (conv, pool, filter)
	Transfer string  // transfer function name (transfer layers)
	Keep     float64 // keep probability (dropout layers)
}

// Spec is an ordered layer list.
type Spec struct {
	Layers []LayerSpec
}

// Parse reads the compact layer DSL: layers separated by '-' or
// whitespace, each "C<k>", "T<name>", "P<p>", "M<k>", or "D<keep>".
// The paper's 3D benchmark net "CTMCTMCTCT" with 3³ kernels and 2³
// max-filterings is "C3-Trelu-M2-C3-Trelu-M2-C3-Trelu-C3-Trelu".
func Parse(s string) (Spec, error) {
	var spec Spec
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == '-' || r == ' ' || r == '\t' || r == '\n' })
	if len(fields) == 0 {
		return spec, fmt.Errorf("net: empty spec")
	}
	for _, f := range fields {
		if len(f) < 2 {
			return spec, fmt.Errorf("net: bad layer %q", f)
		}
		kind, arg := f[0], f[1:]
		switch kind {
		case 'C', 'c':
			k, err := strconv.Atoi(arg)
			if err != nil || k < 1 {
				return spec, fmt.Errorf("net: bad conv kernel in %q", f)
			}
			spec.Layers = append(spec.Layers, LayerSpec{Kind: ConvLayer, Window: k})
		case 'T', 't':
			spec.Layers = append(spec.Layers, LayerSpec{Kind: TransferLayer, Transfer: arg})
		case 'P', 'p':
			p, err := strconv.Atoi(arg)
			if err != nil || p < 1 {
				return spec, fmt.Errorf("net: bad pool window in %q", f)
			}
			spec.Layers = append(spec.Layers, LayerSpec{Kind: PoolLayer, Window: p})
		case 'M', 'm':
			k, err := strconv.Atoi(arg)
			if err != nil || k < 1 {
				return spec, fmt.Errorf("net: bad filter window in %q", f)
			}
			spec.Layers = append(spec.Layers, LayerSpec{Kind: FilterLayer, Window: k})
		case 'D', 'd':
			keep, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(keep > 0 && keep <= 1) { // rejects NaN too
				return spec, fmt.Errorf("net: bad dropout keep in %q", f)
			}
			spec.Layers = append(spec.Layers, LayerSpec{Kind: DropoutLayer, Keep: keep})
		default:
			return spec, fmt.Errorf("net: unknown layer kind %q in %q", string(kind), f)
		}
	}
	return spec, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) Spec {
	spec, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the spec back into the DSL.
func (s Spec) String() string {
	parts := make([]string, len(s.Layers))
	for i, l := range s.Layers {
		switch l.Kind {
		case ConvLayer, PoolLayer, FilterLayer:
			parts[i] = fmt.Sprintf("%s%d", l.Kind, l.Window)
		case TransferLayer:
			parts[i] = "T" + l.Transfer
		case DropoutLayer:
			// No exponent form: the '-' of "1e-05" would split the layer.
			parts[i] = "D" + strconv.FormatFloat(l.Keep, 'f', -1, 64)
		}
	}
	return strings.Join(parts, "-")
}

// ToFiltering converts a max-pooling spec into the equivalent max-filtering
// spec (Fig. 2): every P<p> becomes M<p>, computing sparsities is the
// builder's job. Specs without pooling layers are returned unchanged.
func (s Spec) ToFiltering() Spec {
	out := Spec{Layers: make([]LayerSpec, len(s.Layers))}
	copy(out.Layers, s.Layers)
	for i := range out.Layers {
		if out.Layers[i].Kind == PoolLayer {
			out.Layers[i].Kind = FilterLayer
		}
	}
	return out
}

// window returns the layer window as an isotropic shape in the given
// dimensionality (2 → z extent 1).
func (l LayerSpec) window(dims int) tensor.Shape {
	if dims == 2 {
		return tensor.S3(l.Window, l.Window, 1)
	}
	return tensor.Cube(l.Window)
}

// layerSparsities returns, for each layer, the sparsity the builder uses
// for it: the product of the windows of all preceding filter layers
// (filter rarefaction, Fig. 2). Pooling layers physically downsample, so
// they do not contribute.
func (s Spec) layerSparsities() []int {
	sps := make([]int, len(s.Layers))
	sp := 1
	for i, l := range s.Layers {
		sps[i] = sp
		if l.Kind == FilterLayer {
			sp *= l.Window
		}
	}
	return sps
}

// FieldOfView returns the network's field of view: the input extent that
// yields a single output voxel. For a pooling spec and its ToFiltering
// transform the value is identical, which is what makes the sliding-window
// equivalence hold.
func (s Spec) FieldOfView() int {
	fov, err := s.InputExtent(1)
	if err != nil {
		panic(err)
	}
	return fov
}

// InputExtent returns the input extent needed for a given output extent,
// walking the layers backward with the sparsity each layer runs at.
func (s Spec) InputExtent(out int) (int, error) {
	if out < 1 {
		return 0, fmt.Errorf("net: output extent %d must be ≥ 1", out)
	}
	sps := s.layerSparsities()
	n := out
	for i := len(s.Layers) - 1; i >= 0; i-- {
		l := s.Layers[i]
		switch l.Kind {
		case ConvLayer, FilterLayer:
			n += sps[i] * (l.Window - 1)
		case PoolLayer:
			n *= l.Window
		}
	}
	return n, nil
}

// OutputExtent returns the output extent for a given input extent, or an
// error when pooling divisibility fails.
func (s Spec) OutputExtent(in int) (int, error) {
	n := in
	sp := 1
	for i, l := range s.Layers {
		switch l.Kind {
		case ConvLayer:
			n -= sp * (l.Window - 1)
		case FilterLayer:
			n -= sp * (l.Window - 1)
			sp *= l.Window
		case PoolLayer:
			if n%l.Window != 0 {
				return 0, fmt.Errorf("net: layer %d: extent %d not divisible by pool %d", i, n, l.Window)
			}
			n /= l.Window
		}
		if n < 1 {
			return 0, fmt.Errorf("net: layer %d consumed the whole image (extent %d)", i, n)
		}
	}
	return n, nil
}

// OutputShape applies the spec's extent arithmetic per axis to a possibly
// anisotropic input shape. Layer windows are isotropic, so each axis walks
// OutputExtent independently; in 2D (dims == 2) the windows have Z extent
// 1, so the input's Z axis must be 1 and passes through unchanged. dims 0
// defaults to 3.
func (s Spec) OutputShape(in tensor.Shape, dims int) (tensor.Shape, error) {
	if dims == 0 {
		dims = 3
	}
	ox, err := s.OutputExtent(in.X)
	if err != nil {
		return tensor.Shape{}, fmt.Errorf("net: x axis: %w", err)
	}
	oy, err := s.OutputExtent(in.Y)
	if err != nil {
		return tensor.Shape{}, fmt.Errorf("net: y axis: %w", err)
	}
	oz := in.Z
	if dims == 3 {
		oz, err = s.OutputExtent(in.Z)
		if err != nil {
			return tensor.Shape{}, fmt.Errorf("net: z axis: %w", err)
		}
	} else if in.Z != 1 {
		return tensor.Shape{}, fmt.Errorf("net: 2D input must have Z extent 1, got %v", in)
	}
	return tensor.S3(ox, oy, oz), nil
}

// HasPooling reports whether the spec contains max-pooling layers. Pooled
// networks are not per-voxel translation invariant, so they cannot be
// tiled; ToFiltering converts them to the equivalent max-filtering form
// that can.
func (s Spec) HasPooling() bool { return s.hasPooling() }

func (s Spec) hasPooling() bool {
	for _, l := range s.Layers {
		if l.Kind == PoolLayer {
			return true
		}
	}
	return false
}

func (s Spec) hasFiltering() bool {
	for _, l := range s.Layers {
		if l.Kind == FilterLayer {
			return true
		}
	}
	return false
}
