// Package ops implements the nonlinear image filtering operations of the
// ZNN computation graph (Section II of the paper): transfer functions with
// biases, max-pooling, max-filtering, and the dropout extension — each with
// its Jacobian for the backward pass (Section III).
// Logistic and ReLU forward passes run AVX2 assembly (transfer_amd64.s)
// where internal/cpu reports VectorOK, with the Go loops' bits.
package ops

import (
	"fmt"
	"math"

	"znn/internal/tensor"
)

// Transfer is a pointwise nonlinearity. Deriv receives the forward output
// y = f(x) (every supported function's derivative is expressible in its
// output, which is what makes transfer Jacobians O(n³) with no stored
// pre-activations). Forward and Backward are the slice-level passes, one
// loop each with no per-voxel interface call, evaluating exactly Apply's
// and Deriv's expressions. Only the logistic's and ReLU's Forward have
// vector bodies: the compiler may fuse math.Tanh's multiply-adds, and each
// Backward's bias gradient is an in-order sum.
type Transfer interface {
	Name() string
	Apply(x float64) float64
	Deriv(y float64) float64
	// Forward sets dst[i] = Apply(src[i] + bias).
	Forward(dst, src []float64, bias float64)
	// Backward sets dst[i] = g[i]·Deriv(y[i]) and returns Σ dst[i] summed
	// in index order (tensor.Sum's), the bias gradient.
	Backward(dst, y, g []float64) float64
}

// logisticForward and reluForward are the Go loops below, or the assembly
// transfer_amd64.go installs in their place.
var logisticForward, reluForward = logisticGo, reluGo

// Logistic is the sigmoid 1/(1+e^{−x}).
type Logistic struct{}

// Name returns "logistic".
func (Logistic) Name() string { return "logistic" }

// Apply evaluates the sigmoid.
func (Logistic) Apply(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Deriv returns y(1−y).
func (Logistic) Deriv(y float64) float64 { return y * (1 - y) }

// Forward evaluates the sigmoid of every biased voxel.
func (Logistic) Forward(dst, src []float64, bias float64) { logisticForward(dst, src, bias) }

// logisticGo is Logistic.Forward's Go body.
func logisticGo(dst, src []float64, bias float64) {
	for i, x := range src[:len(dst)] {
		dst[i] = 1 / (1 + math.Exp(-(x + bias)))
	}
}

// Backward multiplies by y(1−y).
func (Logistic) Backward(dst, y, g []float64) (sum float64) {
	for i := range dst {
		dst[i] = g[i] * (y[i] * (1 - y[i]))
		sum += dst[i]
	}
	return sum
}

// Tanh is the hyperbolic tangent.
type Tanh struct{}

// Name returns "tanh".
func (Tanh) Name() string { return "tanh" }

// Apply evaluates tanh.
func (Tanh) Apply(x float64) float64 { return math.Tanh(x) }

// Deriv returns 1−y².
func (Tanh) Deriv(y float64) float64 { return 1 - y*y }

// Forward evaluates tanh of every biased voxel.
func (Tanh) Forward(dst, src []float64, bias float64) {
	for i, x := range src[:len(dst)] {
		dst[i] = math.Tanh(x + bias)
	}
}

// Backward multiplies by 1−y².
func (Tanh) Backward(dst, y, g []float64) (sum float64) {
	for i := range dst {
		dst[i] = g[i] * (1 - y[i]*y[i])
		sum += dst[i]
	}
	return sum
}

// ReLU is half-wave rectification max(0, x).
type ReLU struct{}

// Name returns "relu".
func (ReLU) Name() string { return "relu" }

// Apply evaluates max(0, x).
func (ReLU) Apply(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// Deriv returns 1 for positive outputs and 0 otherwise (the subgradient 0
// is used at the kink).
func (ReLU) Deriv(y float64) float64 {
	if y > 0 {
		return 1
	}
	return 0
}

// Forward rectifies every biased voxel.
func (ReLU) Forward(dst, src []float64, bias float64) { reluForward(dst, src, bias) }

// reluGo is ReLU.Forward's Go body.
func reluGo(dst, src []float64, bias float64) {
	for i, x := range src[:len(dst)] {
		dst[i] = ReLU{}.Apply(x + bias)
	}
}

// Backward multiplies by 1 where the output is positive, by 0 elsewhere.
func (r ReLU) Backward(dst, y, g []float64) (sum float64) {
	for i := range dst {
		dst[i] = g[i] * r.Deriv(y[i])
		sum += dst[i]
	}
	return sum
}

// Linear is the identity transfer (useful for output layers trained with a
// loss that includes its own nonlinearity).
type Linear struct{}

// Name returns "linear".
func (Linear) Name() string { return "linear" }

// Apply returns x.
func (Linear) Apply(x float64) float64 { return x }

// Deriv returns 1.
func (Linear) Deriv(float64) float64 { return 1 }

// Forward adds the bias.
func (Linear) Forward(dst, src []float64, bias float64) {
	for i, x := range src[:len(dst)] {
		dst[i] = x + bias
	}
}

// Backward multiplies by 1.
func (Linear) Backward(dst, _, g []float64) (sum float64) {
	for i := range dst {
		dst[i] = g[i] * 1
		sum += dst[i]
	}
	return sum
}

// TransferByName returns the transfer function with the given name.
func TransferByName(name string) (Transfer, error) {
	switch name {
	case "logistic", "sigmoid":
		return Logistic{}, nil
	case "tanh":
		return Tanh{}, nil
	case "relu", "rectify":
		return ReLU{}, nil
	case "linear", "identity":
		return Linear{}, nil
	default:
		return nil, fmt.Errorf("ops: unknown transfer function %q", name)
	}
}

// TransferForward computes out = f(in + bias) into a new tensor.
func TransferForward(t Transfer, in *tensor.Tensor, bias float64) *tensor.Tensor {
	out := tensor.New(in.S)
	t.Forward(out.Data, in.Data, bias)
	return out
}

// TransferBackward computes the transfer Jacobian: each voxel of the
// backward image grad multiplied by f′ evaluated via the forward output
// fwdOut (Section III: "every voxel of a backward image is multiplied by
// the derivative of the transfer function for the corresponding voxel in
// the forward image").
func TransferBackward(t Transfer, fwdOut, grad *tensor.Tensor) *tensor.Tensor {
	if fwdOut.S != grad.S {
		panic(fmt.Sprintf("ops: transfer backward shape mismatch %v vs %v", fwdOut.S, grad.S))
	}
	out := tensor.New(grad.S)
	t.Backward(out.Data, fwdOut.Data, grad.Data)
	return out
}

// BiasGrad returns the gradient of the loss with respect to the bias: the
// sum of all voxels of the backward image at the node (Section III-B).
func BiasGrad(grad *tensor.Tensor) float64 { return grad.Sum() }
