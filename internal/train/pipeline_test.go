package train

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"znn/internal/chaos"
	"znn/internal/conv"
	"znn/internal/net"
	"znn/internal/plan"
	"znn/internal/tensor"
)

// pipelineSamples pre-generates a deterministic training set so every round
// path consumes bit-identical inputs.
// ins[i] and des[i] are round i's input and desired-output slices.
func pipelineSamples(nw *net.Network, rounds int, seed int64) (ins, des [][]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rounds; i++ {
		in := make([]*tensor.Tensor, len(nw.Inputs))
		for j := range in {
			in[j] = tensor.RandomUniform(rng, nw.InputShape(), -1, 1)
		}
		d := make([]*tensor.Tensor, len(nw.Outputs))
		for j := range d {
			d[j] = tensor.RandomUniform(rng, nw.OutputShape(), -0.5, 0.5)
		}
		ins, des = append(ins, in), append(des, d)
	}
	return ins, des
}

// cloneAll deep-copies one round's tensors, so paths that train on the
// same sample set never share (or mutate) each other's buffers.
func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// trainRounds runs the training set through Engine.Round and returns the
// loss trajectory.
func trainRounds(t *testing.T, en *Engine, ins, des [][]*tensor.Tensor) []float64 {
	t.Helper()
	losses := make([]float64, len(ins))
	for i := range ins {
		loss, err := en.Round(cloneAll(ins[i]), cloneAll(des[i]))
		if err != nil {
			t.Fatal(err)
		}
		losses[i] = loss
	}
	return losses
}

// trainPipeline runs the training set through a StartPipeline session with
// ahead rounds submitted before the oldest is waited (ahead 0 waits each
// round before submitting the next).
func trainPipeline(t *testing.T, en *Engine, ins, des [][]*tensor.Tensor, ahead int) []float64 {
	t.Helper()
	tp := en.StartPipeline()
	losses := make([]float64, len(ins))
	pending := make([]*PendingRound, 0, ahead+1)
	next := 0 // index of the oldest unwaited round
	for i := range ins {
		pr, err := tp.Submit(cloneAll(ins[i]), cloneAll(des[i]))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pr)
		for len(pending) > ahead {
			loss, err := pending[0].Wait()
			if err != nil {
				t.Fatal(err)
			}
			losses[next] = loss
			next++
			pending = pending[1:]
		}
	}
	for _, pr := range pending {
		loss, err := pr.Wait()
		if err != nil {
			t.Fatal(err)
		}
		losses[next] = loss
		next++
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	return losses
}

// sameTrajectory asserts two loss trajectories and two weight vectors are
// bit-identical (==, not tolerance).
func sameTrajectory(t *testing.T, label string, wantLoss, gotLoss []float64, want, got *net.Network) {
	t.Helper()
	for i := range wantLoss {
		if gotLoss[i] != wantLoss[i] {
			t.Errorf("%s: round %d loss %v, want %v (bit-identical)", label, i, gotLoss[i], wantLoss[i])
		}
	}
	wp, gp := want.Params(), got.Params()
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: weight %d is %v, want %v (bit-identical)", label, i, gp[i], wp[i])
		}
	}
}

// roundPathRegimes are the convolution regimes TestRoundPathEquivalence
// sweeps. Every node sum adds its terms and groups in a fixed order, so
// results are bit-identical whatever order tasks finish in, at width 8 as
// at width 2. build returns a fresh, identically seeded network and the
// engine config that runs it.
var roundPathRegimes = []struct {
	name  string
	build func(t *testing.T) (*net.Network, Config)
}{
	{"forced-fft", func(t *testing.T) (*net.Network, Config) {
		return buildForced(t, conv.FFT), Config{Eta: 0.05}
	}},
	{"forced-fft-w8", func(t *testing.T) (*net.Network, Config) {
		nw, err := net.Build(net.MustParse("C3-Ttanh-C3"), net.BuildOptions{
			Width: 8, OutputExtent: 4, Seed: 13,
			Method: conv.FFT, Memoize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw, Config{Eta: 0.05}
	}},
	{"forced-direct", func(t *testing.T) (*net.Network, Config) {
		return buildForced(t, conv.Direct), Config{Eta: 0.05}
	}},
	{"planned-mixed", func(t *testing.T) (*net.Network, Config) {
		// The smallest width-2 shape class the planner splits: the 2³ layer
		// runs direct, the 7³ layer FFT at f32.
		nw, err := net.Build(net.MustParse("C2-Ttanh-C7"), net.BuildOptions{
			Width: 2, OutWidth: 2, OutputExtent: 16, Seed: 23,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(nw.LayerGeoms(), plan.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Methods()) < 2 {
			t.Fatalf("planned regime runs a single method: %v", p.Methods())
		}
		return nw, Config{Eta: 0.05, Plan: p}
	}},
}

func buildForced(t *testing.T, method conv.Method) *net.Network {
	t.Helper()
	nw, err := net.Build(net.MustParse("C3-Ttanh-C3"), net.BuildOptions{
		Width: 2, OutputExtent: 4, Seed: 13,
		Method: method, Memoize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestRoundPathEquivalence is the invariant table of the one round path:
// across forced-FFT, forced-direct and planned mixed-method nets at 1, 2
// and 4 workers,
//
//   - training through an Engine.Round loop, through a session that waits
//     each round before submitting the next, and through a session that
//     keeps one round submitted ahead yields bitwise-equal loss
//     trajectories and final weights;
//   - volume v of Infer at K=4, and Infer called from 4 goroutines at
//     once, each equal a serialized K=1 Infer of volume v bit for bit —
//     with the last training round's lazy updates still pending when
//     inference starts.
func TestRoundPathEquivalence(t *testing.T) {
	const rounds, k = 5, 4
	for _, regime := range roundPathRegimes {
		for _, workers := range []int{1, 2, 4} {
			regime, workers := regime, workers
			t.Run(fmt.Sprintf("%s/%dworkers", regime.name, workers), func(t *testing.T) {
				open := func() (*net.Network, *Engine) {
					nw, cfg := regime.build(t)
					cfg.Workers = workers
					en, err := NewEngine(nw.G, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return nw, en
				}
				ref, enRef := open()
				ins, des := pipelineSamples(ref, rounds, 14)
				refLoss := trainRounds(t, enRef, ins, des)
				checkInferPaths(t, ref, enRef, k)
				if err := enRef.Close(); err != nil {
					t.Fatal(err)
				}
				for _, ahead := range []int{0, 1} {
					nw, en := open()
					loss := trainPipeline(t, en, ins, des, ahead)
					if err := en.Close(); err != nil {
						t.Fatal(err)
					}
					sameTrajectory(t, fmt.Sprintf("session lag %d", ahead), refLoss, loss, ref, nw)
				}
			})
		}
	}
}

// checkInferPaths asserts every way into an inference round agrees with
// serialized K=1 Infer calls on k random volumes.
func checkInferPaths(t *testing.T, nw *net.Network, en *Engine, k int) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
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
	fused, err := en.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fused {
		if !fused[v][0].Equal(want[v]) {
			t.Errorf("Infer K=%d volume %d differs from its K=1 call", k, v)
		}
	}
	var wg sync.WaitGroup
	for v := range batch {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			outs, err := en.Infer(batch[v : v+1])
			if err != nil {
				t.Error(err)
				return
			}
			if !outs[0][0].Equal(want[v]) {
				t.Errorf("concurrent Infer of volume %d differs from its serialized call", v)
			}
		}(v)
	}
	wg.Wait()
}

// TestSubmitReportsValidationErrors pins where errors surface: a round that
// fails validation is rejected by Submit itself — no handle, nothing to
// Wait — and the session stays usable.
func TestSubmitReportsValidationErrors(t *testing.T) {
	nw := buildForced(t, conv.FFT)
	ins, des := pipelineSamples(nw, 1, 19)
	en, err := NewEngine(nw.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	tp := en.StartPipeline()
	defer tp.Close()

	bad := tensor.New(tensor.Cube(1))
	if pr, err := tp.Submit([]*tensor.Tensor{bad}, des[0]); err == nil || pr != nil {
		t.Fatalf("Submit with a mis-shaped input = (%v, %v), want (nil, error)", pr, err)
	}
	if pr, err := tp.Submit(ins[0], []*tensor.Tensor{bad}); err == nil || pr != nil {
		t.Fatalf("Submit with a mis-shaped target = (%v, %v), want (nil, error)", pr, err)
	}
	pr, err := tp.Submit(ins[0], des[0])
	if err != nil {
		t.Fatalf("Submit after rejected rounds: %v", err)
	}
	if _, err := pr.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestErroredRoundKeepsLastSuccessfulState faults a session round at the
// round.dispatch chaos point and asserts the engine's round-reporting state
// — Loss, NodeForward — still describes the last round that
// succeeded.
func TestErroredRoundKeepsLastSuccessfulState(t *testing.T) {
	nw := buildForced(t, conv.FFT)
	ins, des := pipelineSamples(nw, 2, 20)
	en, err := NewEngine(nw.G, Config{Workers: 2, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()

	loss, err := en.Round(ins[0], des[0])
	if err != nil {
		t.Fatal(err)
	}
	outName := nw.Outputs[0].Name
	img := en.NodeForward(outName)
	if img == nil {
		t.Fatal("no round state after a successful round")
	}

	chaos.Set("round.dispatch", chaos.Fault{Panic: "faulted round", Count: 1})
	defer chaos.ClearAll()
	tp := en.StartPipeline()
	pr, err := tp.Submit(ins[1], des[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(); err == nil || !strings.Contains(err.Error(), "faulted round") {
		t.Fatalf("faulted round error = %v, want the injected fault", err)
	}
	if err := tp.Close(); err == nil {
		t.Fatal("Close after a faulted last round returned nil")
	}

	if got := en.Loss(); got != loss {
		t.Errorf("Loss() = %v after an errored round, want the last successful %v", got, loss)
	}
	if en.NodeForward(outName) != img {
		t.Error("NodeForward reports the errored round")
	}
}

// TestPipelineErrorDoesNotWedgeSuccessor injects a panic into the second
// round's provider task — before it spawned any forward or backward work,
// so none of its per-edge fences release normally — and asserts the error
// stays on that round while the third round still completes (the finish
// backstop force-releases the dead round's fences).
//
// The order in which in-flight rounds' provider tasks run is not part of
// the contract (they share one priority, and the per-edge fences are what
// order the weight use), so a hit-counting fault cannot pick a round by
// submission order. Instead the panic is armed only between round 0's
// provider hit and round 1's, and round 2 is submitted after it fired.
func TestPipelineErrorDoesNotWedgeSuccessor(t *testing.T) {
	nw, err := net.Build(net.MustParse("C3-Ttanh-C3"), net.BuildOptions{Width: 2, OutputExtent: 2, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	ins, des := pipelineSamples(nw, 3, 16)
	en, err := NewEngine(nw.G, Config{Workers: 2, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()

	const point = "round.dispatch"
	defer chaos.ClearAll()
	// awaitHit waits until the provider of the round just submitted has
	// reached the chaos point.
	awaitHit := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); chaos.Hits(point) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("no provider task reached the chaos point")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	tp := en.StartPipeline()
	var prs []*PendingRound
	for i := range ins {
		switch i {
		case 0:
			chaos.Set(point, chaos.Fault{After: math.MaxInt}) // counts hits, never fires
		case 1:
			chaos.Set(point, chaos.Fault{Panic: "mid-session fault", Count: 1})
		case 2:
			chaos.Clear(point)
		}
		pr, err := tp.Submit(ins[i], des[i])
		if err != nil {
			t.Fatal(err)
		}
		prs = append(prs, pr)
		if i < 2 {
			awaitHit()
		}
	}
	if _, err := prs[0].Wait(); err != nil {
		t.Fatalf("round 0 failed: %v", err)
	}
	if _, err := prs[1].Wait(); err == nil || !strings.Contains(err.Error(), "mid-session fault") {
		t.Fatalf("round 1 error = %v, want the injected fault", err)
	}
	if _, err := prs[2].Wait(); err != nil {
		t.Fatalf("round 2 after the faulted round: %v", err)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineSubmitAfterClose pins the session lifecycle: Submit on a
// closed session fails, Close is idempotent, and the engine is usable
// again after the session ends.
func TestPipelineSubmitAfterClose(t *testing.T) {
	nw, err := net.Build(net.MustParse("C2-Ttanh"), net.BuildOptions{Width: 2, OutputExtent: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ins, des := pipelineSamples(nw, 1, 18)
	en, err := NewEngine(nw.G, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	tp := en.StartPipeline()
	if _, err := tp.Submit(ins[0], des[0]); err != nil {
		t.Fatal(err)
	}
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := tp.Submit(ins[0], des[0]); err == nil {
		t.Fatal("Submit on a closed session succeeded")
	}
	if _, err := en.Round(ins[0], des[0]); err != nil {
		t.Fatalf("Round after session close: %v", err)
	}
}
