package train

import (
	"math/rand"
	"testing"

	"znn/internal/conv"
	"znn/internal/mempool"
	"znn/internal/net"
	"znn/internal/plan"
	"znn/internal/tensor"
)

// buildPlanNet builds the planner benchmark network: C5-Ttanh-C7, width 4,
// out width 4, output extent 24 — mixed-method optimal (layer 0 direct,
// layer 1 FFT/f32) at every budget level.
func buildPlanNet(t testing.TB) *net.Network {
	t.Helper()
	nw, err := net.Build(net.MustParse("C5-Ttanh-C7"), net.BuildOptions{
		Width: 4, OutWidth: 4, OutputExtent: 24, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// spatialTol absorbs summing-node accumulation-order jitter: engines
// compiled from one graph schedule a node's fan-in additions in varying
// order, so even two all-direct compiles differ in the last bits at
// fan-in 4 (see buildInferNet's width-2 bit-exactness note). Per-edge
// arithmetic of Direct at every kernel density is covered in
// internal/conv; here the network-level claim is order-jitter only.
const spatialTol = 1e-12

// TestPlannedMatchesForcedCells checks output parity of a planned
// compilation against single-method forced compilations across every
// (method, precision) cell: the planner only re-routes execution, it never
// changes what is computed. Engines are compiled and run strictly one
// after another — Compile retargets the graph's shared transformers in
// place, so interleaving two engines' lifetimes would mix assignments.
func TestPlannedMatchesForcedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nw := buildPlanNet(t)
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}

	// Reference: forced all-direct compilation (exact spatial arithmetic).
	ref := forwardWith(t, nw, plan.Forced(nw.LayerGeoms(), conv.Direct, conv.PrecF64, 1), conv.PrecF64, in)

	cells := []struct {
		name string
		m    conv.Method
		p    conv.Precision
		tol  float64
	}{
		{"direct/f64", conv.Direct, conv.PrecF64, spatialTol},
		{"fft/f64", conv.FFT, conv.PrecF64, conv.PrecF64.Tol()},
		{"fft/f32", conv.FFT, conv.PrecF32, conv.PrecF32.Tol()},
	}
	for _, c := range cells {
		p := plan.Forced(nw.LayerGeoms(), c.m, c.p, 1)
		got := forwardWith(t, nw, p, conv.PrecF64, in)
		for i := range got {
			d := got[i].MaxAbsDiff(ref[i])
			if d > c.tol {
				t.Errorf("cell %s: output %d differs from direct reference by %g (tol %g)",
					c.name, i, d, c.tol)
			}
		}
	}

	// The real mixed plan must agree with the reference at the loosest
	// tolerance of the cells it mixes (f32 FFT on layer 1).
	p, err := plan.Build(nw.LayerGeoms(), plan.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Methods()) < 2 {
		t.Fatalf("benchmark net planned a single method: %v", p.Methods())
	}
	got := forwardWith(t, nw, p, conv.PrecF64, in)
	for i := range got {
		if d := got[i].MaxAbsDiff(ref[i]); d > conv.PrecF32.Tol() {
			t.Errorf("mixed plan: output %d differs from reference by %g", i, d)
		}
	}
}

// forwardWith compiles nw's graph under the given plan (nil = unplanned at
// prec) and runs one forward pass.
func forwardWith(t testing.TB, nw *net.Network, p *plan.Plan, prec conv.Precision, in []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	en, err := NewEngine(nw.G, Config{Workers: 2, Precision: prec, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	outs, err := infer1(en, in...)
	if err != nil {
		t.Fatal(err)
	}
	cl := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		cl[i] = o.Clone()
	}
	return cl
}

// TestPlannedBudgetHoldsMeasured is the planner's acceptance check: plan
// the benchmark net under ~60% of its unconstrained estimated peak, run a
// fused round at the plan's K, and assert the spectra pools' measured
// PeakLiveBytes stays within the budget while outputs remain correct.
func TestPlannedBudgetHoldsMeasured(t *testing.T) {
	const workers = 2
	nw := buildPlanNet(t)
	unconstrained, err := plan.Build(nw.LayerGeoms(), plan.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	budget := unconstrained.PeakBytes * 6 / 10
	p, err := plan.Build(nw.LayerGeoms(), plan.Config{Budget: budget, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if p.PeakBytes > budget {
		t.Fatalf("plan estimate %d exceeds budget %d", p.PeakBytes, budget)
	}
	if len(p.Methods()) < 2 {
		t.Fatalf("60%% budget collapsed the plan to one method: %v", p.Methods())
	}

	rng := rand.New(rand.NewSource(32))
	batch := make([][]*tensor.Tensor, p.K)
	for i := range batch {
		batch[i] = []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	}
	// Reference outputs from a forced all-direct engine — compiled and
	// closed BEFORE the planned engine, since Compile retargets the
	// graph's shared transformers in place.
	var refs [][]*tensor.Tensor
	for _, in := range batch {
		refs = append(refs, forwardWith(t, nw, plan.Forced(nw.LayerGeoms(), conv.Direct, conv.PrecF64, 1), conv.PrecF64, in))
	}

	en, err := NewEngine(nw.G, Config{Workers: workers, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()

	// One warm round fills kernel spectra and the pools' size classes;
	// the measured round then reflects the steady serving state.
	if _, err := en.Infer(batch); err != nil {
		t.Fatal(err)
	}
	mempool.Spectra.ResetPeak()
	mempool.Spectra32.ResetPeak()
	outs, err := en.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	meas := mempool.Spectra.Stats().PeakLiveBytes + mempool.Spectra32.Stats().PeakLiveBytes
	if meas > budget {
		t.Errorf("measured pooled peak %d exceeds budget %d (estimate %d)\n%s",
			meas, budget, p.PeakBytes, p.Table())
	}
	if meas == 0 {
		t.Error("measured pooled peak is 0 — the budgeted round never touched the spectra pools")
	}
	for v := range outs {
		for i := range outs[v] {
			if d := outs[v][i].MaxAbsDiff(refs[v][i]); d > conv.PrecF32.Tol() {
				t.Errorf("volume %d output %d differs from reference by %g under budget", v, i, d)
			}
		}
	}
}

// TestCompileUnplannedEdgesKeepPrecision guards the fallback path: without
// a plan, Compile applies cfg.Precision uniformly, exactly as before the
// planner existed.
func TestCompileUnplannedEdgesKeepPrecision(t *testing.T) {
	nw := buildPlanNet(t)
	rng := rand.New(rand.NewSource(33))
	in := []*tensor.Tensor{tensor.RandomUniform(rng, nw.InputShape(), -1, 1)}
	a := forwardWith(t, nw, nil, conv.PrecF64, in)
	b := forwardWith(t, nw, nil, conv.PrecF64, in)
	for i := range a {
		if d := a[i].MaxAbsDiff(b[i]); d > spatialTol {
			t.Errorf("two unplanned compiles disagree by %g", d)
		}
	}
}
