package train

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"znn/internal/conv"
	"znn/internal/graph"
	"znn/internal/mempool"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/tensor"
)

// buildInferNet compiles a small two-conv-layer network whose conv edges
// all use method m. Width 2 keeps summing-node fan-in at 2, where
// Algorithm 4's accumulation is a single commutative addition —
// bit-identical regardless of contribution order — so concurrent rounds
// can be compared byte-for-byte against serial ones.
func buildInferNet(t testing.TB, workers int, m conv.Method) (*Engine, *net.Network) {
	t.Helper()
	nw, err := net.Build(net.MustParse("C3-Ttanh-C3"), net.BuildOptions{
		Width: 2, InputExtent: 16,
		Method:  m,
		Memoize: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(nw.G, Config{Workers: workers, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return en, nw
}

// infer1 runs one K=1 inference round — the shape of the public
// Network.Infer wrapper over the engine's one K-wide entry.
func infer1(en *Engine, inputs ...*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, err := en.Infer([][]*tensor.Tensor{inputs})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// TestConcurrentInferDeterminism runs ≥8 simultaneous Infer rounds on one
// engine and checks every result is bit-identical to a serialized Infer
// of the same input. This is both the -race exercise for
// concurrent in-flight rounds and the determinism acceptance check.
func TestConcurrentInferDeterminism(t *testing.T) {
	en, nw := buildInferNet(t, 4, conv.FFT)
	defer en.Close()

	rng := rand.New(rand.NewSource(3))
	const nInputs = 8
	inputs := make([]*tensor.Tensor, nInputs)
	want := make([]*tensor.Tensor, nInputs)
	for i := range inputs {
		inputs[i] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		outs, err := infer1(en, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0]
	}

	const goroutines = 8
	const perG = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				i := (g + k) % nInputs
				outs, err := infer1(en, inputs[i])
				if err != nil {
					errs <- err
					return
				}
				if !outs[0].Equal(want[i]) {
					errs <- fmt.Errorf(
						"goroutine %d input %d: concurrent Infer differs from serial Infer (max |Δ| = %g)",
						g, i, outs[0].MaxAbsDiff(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInferAfterTrainingSeesUpdatedWeights checks the training→inference
// transition: lazily pending update tasks from the last Round are applied
// before the first Infer round is admitted, so Infer and an Infer after an
// explicit Drain agree bit-for-bit.
func TestInferAfterTrainingSeesUpdatedWeights(t *testing.T) {
	en, nw := buildInferNet(t, 3, conv.FFT)
	defer en.Close()

	rng := rand.New(rand.NewSource(5))
	in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, nw.OutputShape(), -1, 1)
	for i := 0; i < 3; i++ {
		if _, err := en.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()}); err != nil {
			t.Fatal(err)
		}
	}
	// Updates from the last Round are still pending here.
	inferOut, err := infer1(en, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := en.Drain(); err != nil {
		t.Fatal(err)
	}
	drainedOut, err := infer1(en, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !inferOut[0].Equal(drainedOut[0]) {
		t.Fatalf("Infer after training differs from Infer after Drain (max |Δ| = %g): pending updates not applied before inference",
			inferOut[0].MaxAbsDiff(drainedOut[0]))
	}
}

// TestInferAllocatesLessThanRound asserts the forward-only/training
// allocation separation through the spectra pool's gauges. Inference
// rounds now draw their spectrum-cache buffers from the pool too (the
// pooled-cache release hook), so the old strict Infer < Round peak
// comparison no longer measures backward-accumulator absence — the infer
// side's cache bytes moved INTO the gauge and the two peaks meet. The
// reworked assertions:
//
//   - Infer's pooled peak must not exceed Round's (a forward-only round
//     still allocates no backward products, gradient accumulators or
//     update-task spectra);
//   - every pooled byte an inference round draws must return to the pool
//     when it completes (LiveBytes back to its pre-round level), which is
//     the release-hook contract;
//   - warm inference rounds must run entirely from the free lists: zero
//     pool Misses, i.e. zero fresh spectrum allocations per round — the
//     churn class this pooling kills for sustained serving traffic.
//
// The graph is chosen so the separation is deterministic at one worker: a
// single input passes a linear transfer and then fans out through two FFT
// convolutions to two outputs, so every forward node sums a group of one
// edge (one pooled accumulator at a time, plus the pooled shared image
// spectrum) while the backward pass sums both edges as one spectral group
// at the transfer's node, over the outputs' pooled backward spectra. An
// input node computes no backward image, so the fan-out sits one node in.
func TestInferAllocatesLessThanRound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.New()
	inShape := tensor.Cube(16)
	in0 := g.AddNode("in", inShape)
	n0 := g.AddNode("act", inShape)
	g.Connect(in0, n0, graph.NewTransferOp(ops.Linear{}, 0))
	k1 := graph.InitKernel(rng, tensor.Cube(3), 1)
	k2 := graph.InitKernel(rng, tensor.Cube(3), 1)
	outShape := inShape.ValidConv(tensor.Cube(3), tensor.Dense())
	n1 := g.AddNode("out1", outShape)
	n2 := g.AddNode("out2", outShape)
	g.Connect(n0, n1, graph.NewConvOp(inShape, k1, tensor.Dense(), conv.FFT, false, nil))
	g.Connect(n0, n2, graph.NewConvOp(inShape, k2, tensor.Dense(), conv.FFT, false, nil))
	en, err := NewEngine(g, Config{Workers: 1, Eta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	if gr := en.p.bwdGroup[n0.Out[0].ID]; !gr.spectral || len(gr.edges) != 2 || len(en.p.fwdGroup[n1.In[0].ID].edges) != 1 {
		t.Fatal("test graph does not have the intended spectral structure")
	}

	in := tensor.RandomUniform(rng, inShape, -1, 1)
	des := []*tensor.Tensor{
		tensor.RandomUniform(rng, outShape, -1, 1),
		tensor.RandomUniform(rng, outShape, -1, 1),
	}
	round := func() {
		if _, err := en.Round([]*tensor.Tensor{in.Clone()}, des); err != nil {
			t.Fatal(err)
		}
		if err := en.Drain(); err != nil { // include update-task allocations in the phase
			t.Fatal(err)
		}
	}
	round() // warm: kernel spectra, pool population
	mempool.Spectra.ResetPeak()
	round()
	peakRound := mempool.Spectra.Stats().PeakLiveBytes

	// Warm the inference side's pool classes (first round may Miss while
	// the free lists grow to the infer working set), then measure.
	if _, err := infer1(en, in.Clone()); err != nil {
		t.Fatal(err)
	}
	pre := mempool.Spectra.Stats()
	mempool.Spectra.ResetPeak()
	const inferRounds = 3
	for i := 0; i < inferRounds; i++ {
		if _, err := infer1(en, in.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	post := mempool.Spectra.Stats()

	if post.PeakLiveBytes > peakRound {
		t.Fatalf("Infer peak pooled bytes %d exceed Round peak %d", post.PeakLiveBytes, peakRound)
	}
	if post.LiveBytes != pre.LiveBytes {
		t.Fatalf("inference rounds leaked pooled spectra: live bytes %d before, %d after (release hook broken)",
			pre.LiveBytes, post.LiveBytes)
	}
	if misses := post.Misses - pre.Misses; misses != 0 {
		t.Fatalf("%d warm inference rounds allocated %d fresh spectrum chunks, want 0 (pool not reused)",
			inferRounds, misses)
	}
	t.Logf("peak pooled spectra bytes: Round %d, Infer %d (%.0f%%); %d warm infer rounds: 0 misses, live bytes restored",
		peakRound, post.PeakLiveBytes, 100*float64(post.PeakLiveBytes)/float64(peakRound), inferRounds)
}

// TestInferFusedMatchesForward checks the fused-round acceptance property:
// one K-wide fused inference round's per-volume outputs are bit-identical
// to K separate K=1 rounds over the same volumes, at K=5, with lazy
// updates pending at the training→serving transition, for an FFT and a
// direct net. Run under the CI -race job.
func TestInferFusedMatchesForward(t *testing.T) {
	for _, m := range []conv.Method{conv.FFT, conv.Direct} {
		t.Run(m.String(), func(t *testing.T) { testInferFusedMatchesForward(t, m) })
	}
}

func testInferFusedMatchesForward(t *testing.T, m conv.Method) {
	en, nw := buildInferNet(t, 4, m)
	defer en.Close()

	rng := rand.New(rand.NewSource(23))
	// A little training first so inference runs against non-initial weights
	// with lazy updates pending at the training→serving transition.
	in0 := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, nw.OutputShape(), -0.5, 0.5)
	for i := 0; i < 2; i++ {
		if _, err := en.Round([]*tensor.Tensor{in0.Clone()}, []*tensor.Tensor{des.Clone()}); err != nil {
			t.Fatal(err)
		}
	}

	const k = 5
	batch := make([][]*tensor.Tensor, k)
	want := make([]*tensor.Tensor, k)
	for v := range batch {
		in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		batch[v] = []*tensor.Tensor{in}
		outs, err := infer1(en, in)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = outs[0]
	}

	outs, err := en.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != k {
		t.Fatalf("fused round returned %d volumes, want %d", len(outs), k)
	}
	for v := range outs {
		if len(outs[v]) != 1 || !outs[v][0].Equal(want[v]) {
			t.Fatalf("fused volume %d differs from its K=1 round (max |Δ| = %g)",
				v, outs[v][0].MaxAbsDiff(want[v]))
		}
	}
}

// TestInferFusedConcurrent keeps several fused K-wide rounds in flight at
// once (the tiler's steady state with a window of rounds) and checks each
// round's per-volume outputs against the serialized reference, for an FFT
// and a direct net; under -race this exercises the batch caches,
// per-volume accumulators and per-volume inverse tasks racing across
// rounds.
func TestInferFusedConcurrent(t *testing.T) {
	for _, m := range []conv.Method{conv.FFT, conv.Direct} {
		t.Run(m.String(), func(t *testing.T) { testInferFusedConcurrent(t, m) })
	}
}

func testInferFusedConcurrent(t *testing.T, m conv.Method) {
	en, nw := buildInferNet(t, 4, m)
	defer en.Close()

	rng := rand.New(rand.NewSource(29))
	const nVols = 6
	vols := make([]*tensor.Tensor, nVols)
	want := make([]*tensor.Tensor, nVols)
	for i := range vols {
		vols[i] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		outs, err := infer1(en, vols[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0]
	}

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				k := 2 + (g+rep)%3 // widths 2..4
				batch := make([][]*tensor.Tensor, k)
				idx := make([]int, k)
				for v := range batch {
					idx[v] = (g + rep + v) % nVols
					batch[v] = []*tensor.Tensor{vols[idx[v]]}
				}
				outs, err := en.Infer(batch)
				if err != nil {
					errs <- err
					return
				}
				for v := range outs {
					if !outs[v][0].Equal(want[idx[v]]) {
						errs <- fmt.Errorf("goroutine %d rep %d: fused volume %d differs from its K=1 round", g, rep, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInferFusedReleasesPool checks the fused round's release hook: a K=4
// fused round returns every pooled spectrum byte (batch caches, products,
// per-volume partial sums) to the pool when it completes, and warm fused
// rounds run without fresh allocations.
func TestInferFusedReleasesPool(t *testing.T) {
	en, nw := buildInferNet(t, 2, conv.FFT)
	defer en.Close()

	rng := rand.New(rand.NewSource(31))
	const k = 4
	batch := make([][]*tensor.Tensor, k)
	for v := range batch {
		batch[v] = []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	}
	if _, err := en.Infer(batch); err != nil { // warm pool classes
		t.Fatal(err)
	}
	pre := mempool.Spectra.Stats()
	for i := 0; i < 3; i++ {
		if _, err := en.Infer(batch); err != nil {
			t.Fatal(err)
		}
	}
	post := mempool.Spectra.Stats()
	if post.LiveBytes != pre.LiveBytes {
		t.Fatalf("fused rounds leaked pooled spectra: live bytes %d before, %d after", pre.LiveBytes, post.LiveBytes)
	}
	if misses := post.Misses - pre.Misses; misses != 0 {
		t.Fatalf("warm fused rounds allocated %d fresh spectrum chunks, want 0", misses)
	}
}

// TestInferProgressUnderSustainedTraining checks that Infer cannot be
// starved by a training loop: every completed Round leaves fresh lazy
// update tasks, so the shared-lock admission path never observes a clean
// weight state — after a few drain attempts Infer must fall back to
// running under the exclusive lock and still return.
func TestInferProgressUnderSustainedTraining(t *testing.T) {
	en, nw := buildInferNet(t, 2, conv.FFT)
	defer en.Close()

	rng := rand.New(rand.NewSource(19))
	in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, nw.OutputShape(), -1, 1)

	stop := make(chan struct{})
	trainDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				trainDone <- nil
				return
			default:
				if _, err := en.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()}); err != nil {
					trainDone <- err
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := infer1(en, in.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-trainDone; err != nil {
		t.Fatal(err)
	}
}

// TestInferDoesNotDisturbTraining interleaves inference with training and
// checks the training trajectory matches a twin engine that never ran
// inference: Infer must leave no trace in cross-round op state (memo
// slots, Jacobian inputs, dropout masks).
func TestInferDoesNotDisturbTraining(t *testing.T) {
	enA, nw := buildInferNet(t, 3, conv.FFT)
	defer enA.Close()
	enB, _ := buildInferNet(t, 3, conv.FFT)
	defer enB.Close()

	rng := rand.New(rand.NewSource(13))
	in := tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
	des := tensor.RandomUniform(rng, nw.OutputShape(), -1, 1)
	for i := 0; i < 4; i++ {
		lA, err := enA.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		// Inference between A's training rounds only.
		if _, err := infer1(enA, in.Clone()); err != nil {
			t.Fatal(err)
		}
		lB, err := enB.Round([]*tensor.Tensor{in.Clone()}, []*tensor.Tensor{des.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		if lA != lB {
			t.Fatalf("round %d: loss with interleaved inference %.17g differs from undisturbed %.17g", i, lA, lB)
		}
	}
}
