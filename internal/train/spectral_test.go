package train

import (
	"math"
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/fft"
	"znn/internal/graph"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
	"znn/internal/wsum"
)

// Spectral accumulation must produce results identical (to tolerance) to
// the serial reference, across several rounds of training with
// memoization.
func TestSpectralTrainingMatchesSerial(t *testing.T) {
	mk := func() *net.Network {
		nw, err := net.Build(net.MustParse("C3-Trelu-C3-Ttanh-C2"), net.BuildOptions{
			Width: 4, OutputExtent: 2, Seed: 41,
			Method:  conv.FFT,
			Memoize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	spectral, serial := mk(), mk()

	enS, err := NewEngine(spectral.G, Config{Workers: 3, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the middle layer of the spectral engine is actually running
	// spectrally (width 4 → 4 conv edges converge per node).
	found := false
	for _, gr := range enS.p.fwdGroup {
		if gr.spectral && len(gr.edges) > 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no node qualified for spectral accumulation")
	}

	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5; round++ {
		in := tensor.RandomUniform(rng, spectral.InputShape(), -1, 1)
		des := tensor.RandomUniform(rng, spectral.OutputShape(), -0.5, 0.5)
		ls, err := enS.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		lr, err := serial.RoundSerial([]*tensor.Tensor{in}, []*tensor.Tensor{des},
			ops.SquaredLoss{}, graph.UpdateOpts{Eta: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ls-lr) > 1e-8*(1+math.Abs(lr)) {
			t.Fatalf("round %d: spectral loss %g vs serial %g", round, ls, lr)
		}
	}
	if err := enS.Close(); err != nil {
		t.Fatal(err)
	}
	ps, pr := spectral.Params(), serial.Params()
	for i := range ps {
		if math.Abs(ps[i]-pr[i]) > 1e-8 {
			t.Fatalf("weights diverged at %d: spectral %g serial %g", i, ps[i], pr[i])
		}
	}
}

// Spectral mode must reduce inverse-transform counts to the paper's
// node-level model: for a fully connected f→f′ FFT layer, the forward pass
// performs f′ inverse transforms (one per output node) instead of f′·f.
func TestSpectralInverseCounts(t *testing.T) {
	f, fp := 4, 4
	var c conv.Counters
	// A linear transfer first: the f input nodes compute no backward image,
	// so the conv layer's sources are the transfer nodes.
	nw, err := net.Build(net.MustParse("Tlinear-C3"), net.BuildOptions{
		Width: fp, InWidth: f, OutWidth: fp, InputExtent: 12,
		Method:  conv.FFT,
		Memoize: true, Counters: &c, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(nw.G, Config{Workers: 2, Eta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	rng := rand.New(rand.NewSource(44))
	inputs := make([]*tensor.Tensor, f)
	for i := range inputs {
		inputs[i] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	}
	desired := make([]*tensor.Tensor, fp)
	for i := range desired {
		desired[i] = tensor.RandomUniform(rng, nw.OutputShape(), -1, 1)
	}
	c.Reset()
	if _, err := en.Round(inputs, desired); err != nil {
		t.Fatal(err)
	}
	if err := en.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	// Forward: f′ inverses (spectral); backward: f inverses (spectral at
	// the input-side nodes — here the f transfer nodes each have fp
	// out-edges); update: f·f′ inverses (one per kernel gradient).
	want := int64(fp + f + f*fp)
	if snap.InverseFFTs != want {
		t.Errorf("inverse FFTs = %d, want %d (node-level model)", snap.InverseFFTs, want)
	}
	// Forward transforms match the memoized Table II count: f image +
	// f′ gradient + f·f′ kernel.
	if wantF := int64(f + fp + f*fp); snap.FFTs != wantF {
		t.Errorf("forward FFTs = %d, want %d", snap.FFTs, wantF)
	}
}

// The spectral Sum must produce exact sums under concurrency (integer
// spectra make complex addition exact).
func TestComplexSumConcurrent(t *testing.T) {
	const adders = 16
	const n = 257
	rng := rand.New(rand.NewSource(45))
	inputs := make([][]complex128, adders)
	want := make([]complex128, n)
	for i := range inputs {
		buf := make([]complex128, n)
		for j := range buf {
			buf[j] = complex(float64(rng.Intn(20)-10), float64(rng.Intn(20)-10))
			want[j] += buf[j]
		}
		inputs[i] = buf
	}
	s := wsum.NewComplex(adders)
	results := make(chan []complex128, adders)
	for i := 0; i < adders; i++ {
		go func(src []complex128) {
			// Contributions must come from the pool.
			buf := poolGet(n)
			copy(buf, src)
			if s.Add(fft.Spec128(buf)) {
				results <- s.Value().C128
			} else {
				results <- nil
			}
		}(inputs[i])
	}
	var final []complex128
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

func poolGet(n int) []complex128 {
	return make([]complex128, n, nextPow2(n))
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
