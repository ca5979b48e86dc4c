package plan

import (
	"reflect"
	"strings"
	"testing"

	"znn/internal/conv"
	"znn/internal/tensor"
)

// benchGeoms is the planner benchmark network's geometry (C5-Ttanh-C7,
// width 4, out width 4, output extent 24): the smallest shape class where
// the optimal plan mixes methods — the 5³ layer runs direct, the 7³ layer
// FFT at f32.
func benchGeoms() []conv.LayerGeom {
	return []conv.LayerGeom{
		{In: tensor.Cube(34), Kernel: tensor.Cube(5), Sp: tensor.Dense(), F: 1, FPrime: 4, Density: 1},
		{In: tensor.Cube(30), Kernel: tensor.Cube(7), Sp: tensor.Dense(), F: 4, FPrime: 4, Density: 1},
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := Config{Budget: 10 << 20, Workers: 2}
	a, err := Build(benchGeoms(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(benchGeoms(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical Builds differ:\n%v\nvs\n%v", a.Table(), b.Table())
	}
}

func TestBuildMixesMethods(t *testing.T) {
	p, err := Build(benchGeoms(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(p.Layers))
	}
	if p.Layers[0].Method != conv.Direct {
		t.Errorf("layer 0 method = %v, want direct", p.Layers[0].Method)
	}
	if p.Layers[1].Method != conv.FFT {
		t.Errorf("layer 1 method = %v, want fft", p.Layers[1].Method)
	}
	if p.Layers[1].Precision != conv.PrecF32 {
		t.Errorf("layer 1 precision = %v, want f32", p.Layers[1].Precision)
	}
	if p.K != 8 {
		t.Errorf("unconstrained K = %d, want 8 (kernel-stream amortization favors the widest round)", p.K)
	}
	if got := len(p.Methods()); got < 2 {
		t.Errorf("plan uses %d distinct methods, want ≥ 2", got)
	}
}

// TestBudgetEnforced checks the planner's central guarantee: the chosen
// plan's estimated peak never exceeds the budget, across a sweep of
// tightening budgets, and tighter budgets never make the modeled cost
// cheaper.
func TestBudgetEnforced(t *testing.T) {
	unconstrained, err := Build(benchGeoms(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prevCost := unconstrained.Cost
	for _, frac := range []int64{100, 80, 60, 40, 25, 10, 1} {
		budget := unconstrained.PeakBytes * frac / 100
		if budget == 0 {
			budget = 1
		}
		p, err := Build(benchGeoms(), Config{Budget: budget, Workers: 2})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if p.PeakBytes > budget {
			t.Fatalf("budget %d: plan peak %d exceeds it\n%s", budget, p.PeakBytes, p.Table())
		}
		if p.Cost < prevCost {
			t.Fatalf("budget %d: cost %g cheaper than looser budget's %g", budget, p.Cost, prevCost)
		}
		var sum int64
		for _, a := range p.Layers {
			sum += a.Bytes
		}
		if sum != p.PeakBytes {
			t.Fatalf("budget %d: PeakBytes %d ≠ Σ layer bytes %d", budget, p.PeakBytes, sum)
		}
		prevCost = p.Cost
	}
}

func TestInfeasibleBudget(t *testing.T) {
	// With spatial methods allowed every budget is feasible (their pooled
	// footprint is 0); restricting to FFT makes a 1-byte budget impossible.
	_, err := Build(benchGeoms(), Config{Budget: 1, Methods: []conv.Method{conv.FFT}})
	if err == nil {
		t.Fatal("1-byte all-FFT budget did not error")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("error %q does not mention the budget", err)
	}
}

// TestDensityMovesCrossover: kernel density is an input to Direct's cost,
// not a method of its own. A layer whose dense kernels make FFT the cheaper
// method is planned Direct once only 5% of its taps are nonzero.
func TestDensityMovesCrossover(t *testing.T) {
	g := conv.LayerGeom{
		In: tensor.Cube(24), Kernel: tensor.Cube(7), Sp: tensor.Dense(),
		F: 4, FPrime: 4, Density: 1,
	}
	for _, c := range []struct {
		density float64
		want    conv.Method
	}{{1, conv.FFT}, {0.05, conv.Direct}} {
		g.Density = c.density
		p, err := Build([]conv.LayerGeom{g}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Layers[0].Method; got != c.want {
			t.Fatalf("density %g: method = %v, want %v\n%s", c.density, got, c.want, p.Table())
		}
	}
}

func TestForcedAndLookup(t *testing.T) {
	geoms := benchGeoms()
	p := Forced(geoms, conv.FFT, conv.PrecF32, 4)
	if p.K != 4 {
		t.Fatalf("K = %d, want 4", p.K)
	}
	for i, a := range p.Layers {
		if a.Method != conv.FFT || a.Precision != conv.PrecF32 {
			t.Fatalf("layer %d: (%v, %v), want (fft, f32)", i, a.Method, a.Precision)
		}
	}
	// Non-FFT forcings normalize precision to f64.
	pd := Forced(geoms, conv.Direct, conv.PrecF32, 4)
	if pd.Layers[0].Precision != conv.PrecF64 {
		t.Fatalf("forced direct precision = %v, want f64", pd.Layers[0].Precision)
	}
	if pd.PeakBytes != 0 {
		t.Fatalf("all-direct peak = %d, want 0", pd.PeakBytes)
	}

	// Lookup resolves by structural geometry; a drifted Density (the zero
	// pattern changes as weights train) must still hit.
	g := geoms[1]
	g.Density = 0.123
	a, ok := p.Lookup(g)
	if !ok {
		t.Fatal("Lookup missed after density drift")
	}
	if a.Layer != 1 {
		t.Fatalf("Lookup resolved layer %d, want 1", a.Layer)
	}
	g.F = 99
	if _, ok := p.Lookup(g); ok {
		t.Fatal("Lookup hit on a mismatched geometry")
	}
}

func TestStatsAndTable(t *testing.T) {
	p, err := Build(benchGeoms(), Config{Budget: 10 << 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	for _, key := range []string{"k", "est_cost", "est_peak_bytes", "budget", "methods", "layers"} {
		if _, ok := st[key]; !ok {
			t.Errorf("Stats missing %q", key)
		}
	}
	layers, ok := st["layers"].([]map[string]any)
	if !ok || len(layers) != 2 {
		t.Fatalf("Stats layers = %T (%v), want 2 entries", st["layers"], st["layers"])
	}
	tab := p.Table()
	if !strings.Contains(tab, "plan: K=") || !strings.Contains(tab, "method") {
		t.Fatalf("Table output malformed:\n%s", tab)
	}
}

// TestLayerBytesModel pins the byte model to its contract: non-FFT methods
// cost 0, f32 halves the element size, and the worker clamp bounds the
// in-flight product term.
func TestLayerBytesModel(t *testing.T) {
	g := benchGeoms()[1]
	if got := LayerBytes(g, conv.Direct, conv.PrecF64, 8, 4); got != 0 {
		t.Fatalf("direct bytes = %d, want 0", got)
	}
	b64 := LayerBytes(g, conv.FFT, conv.PrecF64, 2, 1)
	b32 := LayerBytes(g, conv.FFT, conv.PrecF32, 2, 1)
	if b64 != 2*b32 {
		t.Fatalf("f64 bytes %d ≠ 2× f32 bytes %d", b64, b32)
	}
	// K·f + K·f′ + min(workers, K·f·f′) + 2·f·f′ buffers at K=2, f=4,
	// f′=4: 8 + 8 + min(w, 32) + 32 (the kernel-spectra term is
	// K-independent, and charged at two buffers per edge transformer).
	few := LayerBytes(g, conv.FFT, conv.PrecF64, 2, 1)
	many := LayerBytes(g, conv.FFT, conv.PrecF64, 2, 64)
	buf := few / (8 + 8 + 1 + 32)
	if many != buf*(8+8+32+32) {
		t.Fatalf("worker clamp wrong: 1-worker %d, 64-worker %d", few, many)
	}
}

// trainingChoice is the method the training objective picks for one layer
// at the given precision.
func trainingChoice(t *testing.T, g conv.LayerGeom, prec conv.Precision) conv.Method {
	t.Helper()
	p, err := Build([]conv.LayerGeom{g}, Config{Training: true, Precisions: []conv.Precision{prec}})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 1 {
		t.Fatalf("training plan has K=%d, want 1", p.K)
	}
	return p.Layers[0].Method
}

func TestTrainingObjectiveChoices(t *testing.T) {
	smallK := conv.LayerGeom{In: tensor.Cube(12), Kernel: tensor.Cube(2), Sp: tensor.Dense(), F: 1, FPrime: 1}
	bigK := conv.LayerGeom{In: tensor.Cube(40), Kernel: tensor.Cube(11), Sp: tensor.Dense(), F: 10, FPrime: 10}
	if trainingChoice(t, smallK, conv.PrecF64) != conv.Direct {
		t.Error("training objective chose FFT for a tiny kernel on a single-edge layer")
	}
	if trainingChoice(t, bigK, conv.PrecF64) != conv.FFT {
		t.Error("training objective chose direct for 11³ kernels on a wide layer")
	}
	// The training objective is K=1 whatever MaxK asks for.
	p, err := Build([]conv.LayerGeom{bigK}, Config{Training: true, MaxK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 1 {
		t.Errorf("training plan with MaxK 8 has K=%d", p.K)
	}
}

func TestTrainingCrossoverGrowsWithKernel(t *testing.T) {
	// For a fixed wide layer, the model must switch from direct to FFT as
	// the kernel grows, and never switch back.
	prevFFT := false
	for k := 1; k <= 13; k += 2 {
		g := conv.LayerGeom{In: tensor.Cube(40), Kernel: tensor.Cube(k), Sp: tensor.Dense(), F: 8, FPrime: 8}
		isFFT := trainingChoice(t, g, conv.PrecF64) == conv.FFT
		if prevFFT && !isFFT {
			t.Errorf("model switched back to direct at k=%d", k)
		}
		prevFFT = prevFFT || isFFT
	}
	if !prevFFT {
		t.Error("model never chose FFT even for 13³ kernels on 40³ images")
	}
}

// TestTrainingPrecisionShiftsCrossover: the f32 cost discount may only
// move geometries from Direct to FFT, never the other way, and there is at
// least one geometry where the two precisions disagree (the crossover
// actually moved).
func TestTrainingPrecisionShiftsCrossover(t *testing.T) {
	flipped := 0
	for n := 4; n <= 46; n += 3 {
		for k := 2; k <= 12; k++ {
			if n <= k {
				continue
			}
			g := conv.LayerGeom{In: tensor.Cube(n), Kernel: tensor.Cube(k),
				Sp: tensor.Dense(), F: 1, FPrime: 1}
			m64 := trainingChoice(t, g, conv.PrecF64)
			m32 := trainingChoice(t, g, conv.PrecF32)
			if m64 == conv.FFT && m32 != conv.FFT {
				t.Fatalf("n=%d k=%d: f32 demoted FFT to %v", n, k, m32)
			}
			if m64 == conv.Direct && m32 == conv.FFT {
				flipped++
			}
		}
	}
	if flipped == 0 {
		t.Error("f32 discount never moved the crossover on the scanned grid")
	}
}
