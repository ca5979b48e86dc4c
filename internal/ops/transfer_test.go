package ops

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

func TestTransferByName(t *testing.T) {
	for _, name := range []string{"logistic", "sigmoid", "tanh", "relu", "rectify", "linear", "identity"} {
		if _, err := TransferByName(name); err != nil {
			t.Errorf("TransferByName(%q) failed: %v", name, err)
		}
	}
	if _, err := TransferByName("softplus"); err == nil {
		t.Error("unknown transfer did not error")
	}
}

func TestTransferValues(t *testing.T) {
	cases := []struct {
		tf   Transfer
		x    float64
		want float64
	}{
		{Logistic{}, 0, 0.5},
		{Tanh{}, 0, 0},
		{ReLU{}, 2, 2},
		{ReLU{}, -2, 0},
		{Linear{}, -3.5, -3.5},
	}
	for _, c := range cases {
		if got := c.tf.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.tf.Name(), c.x, got, c.want)
		}
	}
}

// Derivatives expressed in the output must match numerical derivatives of
// Apply.
func TestTransferDerivMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6
	for _, tf := range []Transfer{Logistic{}, Tanh{}, ReLU{}, Linear{}} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			y := tf.Apply(x)
			got := tf.Deriv(y)
			want := (tf.Apply(x+h) - tf.Apply(x-h)) / (2 * h)
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("%s'(%v): Deriv = %v, finite diff = %v", tf.Name(), x, got, want)
			}
		}
	}
}

func TestTransferForwardBias(t *testing.T) {
	in := tensor.FromSlice(tensor.S3(3, 1, 1), -1, 0, 1)
	out := TransferForward(ReLU{}, in, 0.5)
	want := tensor.FromSlice(tensor.S3(3, 1, 1), 0, 0.5, 1.5)
	if !out.ApproxEqual(want, 1e-12) {
		t.Errorf("TransferForward = %v, want %v", out.Data, want.Data)
	}
}

// The transfer Jacobian must match the finite-difference directional
// derivative: for L = <f(x+b), u>, dL/dx = TransferBackward(f(x+b), u) and
// dL/db = BiasGrad(TransferBackward(...)).
func TestTransferBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const h = 1e-6
	for _, tf := range []Transfer{Logistic{}, Tanh{}, Linear{}} {
		in := tensor.RandomUniform(rng, tensor.S3(3, 2, 2), -1, 1)
		u := tensor.RandomUniform(rng, in.S, -1, 1)
		bias := 0.3
		fwd := TransferForward(tf, in, bias)
		grad := TransferBackward(tf, fwd, u)
		// Voxel gradient check.
		for i := range in.Data {
			plus := in.Clone()
			plus.Data[i] += h
			minus := in.Clone()
			minus.Data[i] -= h
			want := (TransferForward(tf, plus, bias).Dot(u) -
				TransferForward(tf, minus, bias).Dot(u)) / (2 * h)
			if math.Abs(grad.Data[i]-want) > 1e-5 {
				t.Fatalf("%s: dL/dx[%d] = %v, finite diff %v", tf.Name(), i, grad.Data[i], want)
			}
		}
		// Bias gradient check.
		gotB := BiasGrad(grad)
		wantB := (TransferForward(tf, in, bias+h).Dot(u) -
			TransferForward(tf, in, bias-h).Dot(u)) / (2 * h)
		if math.Abs(gotB-wantB) > 1e-4 {
			t.Errorf("%s: dL/db = %v, finite diff %v", tf.Name(), gotB, wantB)
		}
	}
}

// TestTransferSlicePassesMatchScalar pins the slice-level passes of every
// transfer to the bits of the scalar formula — Forward to Apply(x+bias),
// Backward to g·Deriv(y) with the bias gradient summed in tensor.Sum's
// order — over ±0, ±Inf, NaN, subnormals, large magnitudes and ordinary
// values, every value against every other.
func TestTransferSlicePassesMatchScalar(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072e-308, -1e-310, 1e300, -1e300, 1e20, -745.2, 710,
		-40, 40, 1, -1, 0.5, -0.25, 0.3}
	var src, y, g []float64
	for _, a := range special {
		for _, b := range special {
			src, y, g = append(src, a), append(y, a), append(g, b)
		}
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for _, tf := range []Transfer{Logistic{}, Tanh{}, ReLU{}, Linear{}} {
		for _, bias := range []float64{0, math.Copysign(0, -1), 0.7, -3, math.Inf(1)} {
			dst := make([]float64, len(src))
			tf.Forward(dst, src, bias)
			for i, x := range src {
				if want := tf.Apply(x + bias); bits(dst[i]) != bits(want) {
					t.Fatalf("%s Forward(%v, bias %v) = %v, Apply gives %v", tf.Name(), x, bias, dst[i], want)
				}
			}
		}
		dst := make([]float64, len(g))
		sum := tf.Backward(dst, y, g)
		want := tensor.New(tensor.S3(len(g), 1, 1))
		for i := range g {
			want.Data[i] = g[i] * tf.Deriv(y[i])
			if bits(dst[i]) != bits(want.Data[i]) {
				t.Fatalf("%s Backward(y %v, g %v) = %v, g·Deriv(y) gives %v", tf.Name(), y[i], g[i], dst[i], want.Data[i])
			}
		}
		// Finite gradients spanning 16 decades, where the order of the sum
		// shows in its bits.
		rng := rand.New(rand.NewSource(3))
		ry, rg := make([]float64, 1000), make([]float64, 1000)
		for i := range ry {
			ry[i], rg[i] = rng.Float64(), (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(17)-8))
		}
		fin := make([]float64, len(rg))
		if got, wantSum := tf.Backward(fin, ry, rg), tensor.FromSlice(tensor.S3(len(fin), 1, 1), fin...).Sum(); bits(got) != bits(wantSum) {
			t.Errorf("%s bias gradient %v, tensor.Sum gives %v", tf.Name(), got, wantSum)
		}
		if wantSum := want.Sum(); bits(sum) != bits(wantSum) && !(math.IsNaN(sum) && math.IsNaN(wantSum)) {
			t.Errorf("%s bias gradient %v over all values, tensor.Sum gives %v", tf.Name(), sum, wantSum)
		}
	}
}

func TestTransferBackwardShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	TransferBackward(ReLU{}, tensor.New(tensor.Cube(2)), tensor.New(tensor.Cube(3)))
}

func TestDropoutKeepAll(t *testing.T) {
	d := NewDropout(1.0, 1)
	rng := rand.New(rand.NewSource(2))
	in := tensor.RandomUniform(rng, tensor.Cube(4), -1, 1)
	out := d.Forward(in)
	if !out.ApproxEqual(in, 1e-12) {
		t.Error("dropout with keep=1 changed the image")
	}
}

func TestDropoutMaskReuseInBackward(t *testing.T) {
	d := NewDropout(0.6, 3)
	rng := rand.New(rand.NewSource(4))
	in := tensor.RandomUniform(rng, tensor.Cube(6), 0.5, 1.5) // strictly positive
	out := d.Forward(in)
	ones := tensor.New(in.S)
	ones.Fill(1)
	back := d.Backward(ones)
	// Backward through voxel i is nonzero exactly when forward kept it.
	for i := range out.Data {
		kept := out.Data[i] != 0
		passed := back.Data[i] != 0
		if kept != passed {
			t.Fatalf("voxel %d: forward kept=%v but backward passed=%v", i, kept, passed)
		}
		if kept {
			// Inverted dropout scale 1/keep on both paths.
			if math.Abs(out.Data[i]-in.Data[i]/0.6) > 1e-12 {
				t.Fatalf("voxel %d: wrong forward scaling", i)
			}
			if math.Abs(back.Data[i]-1/0.6) > 1e-12 {
				t.Fatalf("voxel %d: wrong backward scaling", i)
			}
		}
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	// Inverted dropout keeps E[out] == in. Average many trials.
	d := NewDropout(0.5, 5)
	in := tensor.New(tensor.Cube(8))
	in.Fill(1)
	sum := tensor.New(in.S)
	const trials = 2000
	for i := 0; i < trials; i++ {
		sum.Add(d.Forward(in))
	}
	sum.Scale(1.0 / trials)
	for i, v := range sum.Data {
		if math.Abs(v-1) > 0.15 {
			t.Fatalf("voxel %d: E[dropout] = %v, want ≈1", i, v)
		}
	}
}

func TestDropoutInvalidKeepPanics(t *testing.T) {
	for _, keep := range []float64{0, -0.1, 1.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDropout(%v) did not panic", keep)
				}
			}()
			NewDropout(keep, 1)
		}()
	}
}

func TestDropoutBackwardBeforeForwardPanics(t *testing.T) {
	d := NewDropout(0.5, 1)
	defer func() {
		if recover() == nil {
			t.Error("Backward before Forward did not panic")
		}
	}()
	d.Backward(tensor.New(tensor.Cube(2)))
}

func TestDropoutInference(t *testing.T) {
	d := NewDropout(0.5, 7)
	rng := rand.New(rand.NewSource(8))
	in := tensor.RandomUniform(rng, tensor.Cube(3), -1, 1)
	if !d.InferenceForward(in).Equal(in) {
		t.Error("inference dropout is not the identity")
	}
}
