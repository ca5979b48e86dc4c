package train

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/net"
	"znn/internal/tensor"
	"znn/internal/wsum"
)

// TestF32TrainingMatchesF64 trains the same network with the engine's
// PrecF32 knob and at the default precision: losses must track within
// float32 tolerance round by round, and the final weights must agree to
// float32 accuracy. Spectral accumulation must be active (in complex64) on
// the f32 engine, and the counters must attribute its transforms to the
// float32 path.
func TestF32TrainingMatchesF64(t *testing.T) {
	var c32 conv.Counters
	mk := func(counters *conv.Counters) *net.Network {
		nw, err := net.Build(net.MustParse("C3-Trelu-C3-Ttanh-C2"), net.BuildOptions{
			Width: 4, OutputExtent: 2, Seed: 71,
			Method:  conv.FFT,
			Memoize: true, Counters: counters,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	n32, n64 := mk(&c32), mk(nil)

	en32, err := NewEngine(n32.G, Config{Workers: 3, Eta: 0.05, Precision: conv.PrecF32})
	if err != nil {
		t.Fatal(err)
	}
	en64, err := NewEngine(n64.G, Config{Workers: 3, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, gr := range en32.p.fwdGroup {
		if gr.spectral && len(gr.edges) > 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no node qualified for spectral accumulation at PrecF32")
	}

	tol := conv.PrecF32.Tol()
	rng := rand.New(rand.NewSource(72))
	for round := 0; round < 4; round++ {
		in := tensor.RandomUniform(rng, n32.InputShape(), -1, 1)
		des := tensor.RandomUniform(rng, n32.OutputShape(), -0.5, 0.5)
		l32, err := en32.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		l64, err := en64.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l32-l64) > tol*(1+math.Abs(l64)) {
			t.Fatalf("round %d: f32 loss %g vs f64 %g", round, l32, l64)
		}
	}
	if err := en32.Close(); err != nil {
		t.Fatal(err)
	}
	if err := en64.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := c32.Snapshot(); snap.F32FFTs == 0 {
		t.Error("f32 engine recorded no float32 transforms")
	}
	w32, w64 := n32.Params(), n64.Params()
	for i := range w32 {
		if math.Abs(w32[i]-w64[i]) > tol {
			t.Fatalf("weights diverged at %d: f32 %g f64 %g", i, w32[i], w64[i])
		}
	}
}

// TestF32SerialMatchesEngine runs the serial reference against the
// parallel engine with both at PrecF32 (the serial path goes through the
// same transformers, which the engine switched to f32 at compile time).
func TestF32SerialMatchesEngine(t *testing.T) {
	nw, err := net.Build(net.MustParse("C3-Trelu-C2"), net.BuildOptions{
		Width: 3, OutputExtent: 3, Seed: 73,
		Method:  conv.FFT,
		Memoize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(nw.G, Config{Workers: 2, Eta: 0.01, Precision: conv.PrecF32})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	rng := rand.New(rand.NewSource(74))
	in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	outs, err := infer1(en, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nw.ForwardSerial([]*tensor.Tensor{in.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if d := outs[i].MaxAbsDiff(ref[i]); d > conv.PrecF32.Tol() {
			t.Fatalf("output %d: engine vs serial differ by %g", i, d)
		}
	}
}

// TestComplexSum32Concurrent is the complex64 twin of the exact-sum
// concurrency test: integer spectra make the additions exact in float32
// too.
func TestComplexSum32Concurrent(t *testing.T) {
	const adders = 16
	const n = 257
	rng := rand.New(rand.NewSource(75))
	inputs := make([][]complex64, adders)
	want := make([]complex64, n)
	for i := range inputs {
		buf := make([]complex64, n)
		for j := range buf {
			buf[j] = complex(float32(rng.Intn(20)-10), float32(rng.Intn(20)-10))
			want[j] += buf[j]
		}
		inputs[i] = buf
	}
	s := wsum.NewComplex(adders)
	results := make(chan []complex64, adders)
	for i := 0; i < adders; i++ {
		go func(src []complex64) {
			buf := make([]complex64, n, nextPow2(n))
			copy(buf, src)
			if s.Add(fft.Spec64(buf)) {
				results <- s.Value().C64
			} else {
				results <- nil
			}
		}(inputs[i])
	}
	var final []complex64
	lasts := 0
	for i := 0; i < adders; i++ {
		if r := <-results; r != nil {
			final = r
			lasts++
		}
	}
	if lasts != 1 {
		t.Fatalf("%d adders reported last", lasts)
	}
	for j := range want {
		if final[j] != want[j] {
			t.Fatalf("sum[%d] = %v, want %v", j, final[j], want[j])
		}
	}
}
