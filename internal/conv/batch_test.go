package conv

import (
	"fmt"
	"math/rand"
	"testing"

	"znn/internal/mempool"
	"znn/internal/tensor"
)

// batchVolumes draws k random volumes of one shape.
func batchVolumes(r *rand.Rand, s tensor.Shape, k int) []*tensor.Tensor {
	vols := make([]*tensor.Tensor, k)
	for i := range vols {
		vols[i] = tensor.RandomUniform(r, s, -1, 1)
	}
	return vols
}

// TestForwardWidthTable pins batch width as data: for every method ×
// precision × width K × {no cache, shared cache}, ForwardBatch(vols)[i] is
// bitwise equal to the one-volume Forward(vols[i]).
func TestForwardWidthTable(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in := tensor.S3(9, 8, 7)
	ker := tensor.RandomUniform(r, tensor.Cube(3), -1, 1)
	ker.Data[4], ker.Data[13] = 0, 0 // give Direct taps to skip
	vols := batchVolumes(r, in, 3)

	for _, tc := range []struct {
		name string
		mth  Method
		prec Precision
	}{
		{"direct", Direct, PrecF64},
		{"fft/f64", FFT, PrecF64},
		{"fft/f32", FFT, PrecF32},
	} {
		tr := NewTransformerPrec(in, ker.S, tensor.Dense(), tc.mth, tc.prec, false, nil)
		want := make([]*tensor.Tensor, len(vols))
		for i, v := range vols {
			want[i] = tr.Forward(v, ker, nil)
		}
		for _, k := range []int{1, 3} {
			for _, cached := range []bool{false, true} {
				var sc *SpectrumCache
				if cached {
					sc = new(SpectrumCache)
					sc.Reset(vols[:k]...)
				}
				check := func(entry string, got []*tensor.Tensor) {
					t.Helper()
					if len(got) != k {
						t.Fatalf("%s K=%d cached=%v: %s returned %d volumes", tc.name, k, cached, entry, len(got))
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Errorf("%s K=%d cached=%v: %s volume %d differs from Forward (max |Δ| = %g)",
								tc.name, k, cached, entry, i, got[i].MaxAbsDiff(want[i]))
						}
					}
				}
				check("ForwardBatch", tr.ForwardBatch(vols[:k], ker, sc, true))
			}
		}
	}
}

// TestSpectralSumsMatchPerEdge pins the spectral node sums to the per-edge
// path: for f ∈ {1, 3, 8} terms over K ∈ {1, 3} volumes at each precision,
// SpectralForward equals Σ_i Forward(x_i, w_i) and SpectralBackward
// Σ_i Backward(g_i, w_i) within Precision.Tol(), and a memoizing training
// sum records both memo slots of every term.
func TestSpectralSumsMatchPerEdge(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	in, ks := tensor.S3(9, 8, 7), tensor.Cube(3)
	out := in.ValidConv(ks, tensor.Dense())
	for _, prec := range []Precision{PrecF64, PrecF32} {
		for _, f := range []int{1, 3, 8} {
			for _, k := range []int{1, 3} {
				name := fmt.Sprintf("%v/f%d/K%d", prec, f, k)
				trs, refs := make([]*Transformer, f), make([]*Transformer, f)
				kers := batchVolumes(r, ks, f)
				for i := range trs {
					trs[i] = NewTransformerPrec(in, ks, tensor.Dense(), FFT, prec, true, nil)
					refs[i] = NewTransformerPrec(in, ks, tensor.Dense(), FFT, prec, false, nil)
				}
				for v := range k {
					imgs, bwds := batchVolumes(r, in, f), batchVolumes(r, out, f)
					fwd, bwd := make([]SpecTerm, f), make([]SpecTerm, f)
					wantF, wantB := tensor.New(out), tensor.New(in)
					for i, tr := range trs {
						var sc, bsc SpectrumCache
						sc.Reset(imgs[i])
						bsc.Reset(bwds[i])
						fwd[i] = SpecTerm{Tr: tr, Ker: kers[i], F: tr.Spectrum(&sc)}
						bwd[i] = SpecTerm{Tr: tr, Ker: kers[i], F: tr.Spectrum(&bsc)}
						wantF.Add(refs[i].Forward(imgs[i], kers[i], nil))
						wantB.Add(refs[i].Backward(bwds[i], kers[i], nil))
					}
					gotF, gotB := tensor.New(out), tensor.New(in)
					SpectralForward(gotF, fwd, v < k-1) // the last volume trains
					SpectralBackward(gotB, bwd)
					if d := gotF.MaxAbsDiff(wantF); !(d <= prec.Tol()) {
						t.Errorf("%s volume %d: forward sum differs from Σ Forward by %g", name, v, d)
					}
					if d := gotB.MaxAbsDiff(wantB); !(d <= prec.Tol()) {
						t.Errorf("%s volume %d: backward sum differs from Σ Backward by %g", name, v, d)
					}
				}
				for i, tr := range trs {
					if !tr.HasMemoizedSpectra() {
						t.Errorf("%s: term %d kept no memo spectra", name, i)
					}
				}
			}
		}
	}
}

// TestInferSweepLeavesMemoAlone: an inference sweep that lands between a
// training round's forward+backward and its (lazy) update must not touch
// the memo slots — the update still consumes the training image spectrum
// and produces the same gradient bits.
func TestInferSweepLeavesMemoAlone(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	in := tensor.S3(9, 8, 7)
	ker := tensor.RandomUniform(r, tensor.Cube(3), -1, 1)
	img := tensor.RandomUniform(r, in, -1, 1)
	bwd := tensor.RandomUniform(r, in.ValidConv(ker.S, tensor.Dense()), -1, 1)
	others := batchVolumes(r, in, 2)

	grad := func(inferBetween bool) *tensor.Tensor {
		tr := NewTransformer(in, ker.S, tensor.Dense(), FFT, true, nil)
		tr.Forward(img, ker, nil)
		tr.Backward(bwd, ker, nil)
		if inferBetween {
			tr.ForwardBatch(others, ker, nil, true)
			SpectralForward(tensor.New(tr.OutShape()), []SpecTerm{{Tr: tr, Ker: ker, F: tr.newSpec(others[0])}}, true)
			if !tr.HasMemoizedSpectra() {
				t.Fatal("inference sweep cleared the memo slots")
			}
		}
		// Poisoned image: the gradient must come from the memoized spectrum.
		return tr.KernelGrad(tensor.New(in), bwd)
	}
	if want, got := grad(false), grad(true); !got.Equal(want) {
		t.Errorf("kernel gradient changed by an interleaved inference sweep (max |Δ| = %g)", got.MaxAbsDiff(want))
	}
}

// TestSpectrumCacheBatch checks the batch cache contract: GetBatch computes
// each volume's spectrum once, Get returns volume 0's shared buffer, and a
// second GetBatch is pure cache hits.
func TestSpectrumCacheBatch(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	in := tensor.S3(8, 8, 8)
	const k = 3
	vols := batchVolumes(r, in, k)
	m := tensor.S3(10, 10, 10)

	var cnt Counters
	var sc SpectrumCache
	sc.Reset(vols...)
	specs := sc.GetBatch(m, PrecF64, &cnt)
	if len(specs) != k {
		t.Fatalf("GetBatch returned %d spectra, want %d", len(specs), k)
	}
	ffts := cnt.Snapshot().FFTs
	if ffts != k {
		t.Fatalf("GetBatch computed %d FFTs, want %d", ffts, k)
	}
	if got := sc.Get(m, PrecF64, &cnt); &got.C128[0] != &specs[0].C128[0] {
		t.Fatal("Get returned a different buffer than GetBatch's volume 0")
	}
	sc.GetBatch(m, PrecF64, &cnt)
	if now := cnt.Snapshot().FFTs; now != ffts {
		t.Fatalf("second GetBatch recomputed spectra: %d FFTs, want %d", now, ffts)
	}
}

// TestSpectrumCachePooledRelease checks the pooled regime: buffers come
// from the spectra pool of their precision and every byte returns on
// ReleaseAll (the inference round's release hook), for both precisions.
func TestSpectrumCachePooledRelease(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	in := tensor.S3(8, 8, 8)
	const k = 2
	vols := batchVolumes(r, in, k)
	m := tensor.S3(10, 10, 10)

	pre64 := mempool.Spectra.Stats().LiveBytes
	pre32 := mempool.Spectra32.Stats().LiveBytes

	var sc SpectrumCache
	sc.SetPooled(true)
	sc.Reset(vols...)
	sc.GetBatch(m, PrecF64, nil)
	sc.GetBatch(m, PrecF32, nil)
	if live := mempool.Spectra.Stats().LiveBytes; live <= pre64 {
		t.Fatalf("pooled f64 cache did not draw from the spectra pool (live %d, was %d)", live, pre64)
	}
	if live := mempool.Spectra32.Stats().LiveBytes; live <= pre32 {
		t.Fatalf("pooled f32 cache did not draw from the f32 spectra pool (live %d, was %d)", live, pre32)
	}
	sc.ReleaseAll()
	if live := mempool.Spectra.Stats().LiveBytes; live != pre64 {
		t.Fatalf("ReleaseAll left %d f64 pool bytes live, want %d", live, pre64)
	}
	if live := mempool.Spectra32.Stats().LiveBytes; live != pre32 {
		t.Fatalf("ReleaseAll left %d f32 pool bytes live, want %d", live, pre32)
	}

	// Reset on a live pooled cache must also return its buffers.
	sc.Reset(vols...)
	sc.GetBatch(m, PrecF64, nil)
	sc.Reset(vols...)
	if live := mempool.Spectra.Stats().LiveBytes; live != pre64 {
		t.Fatalf("Reset leaked pooled bytes: live %d, want %d", live, pre64)
	}
}
