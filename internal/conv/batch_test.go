package conv

import (
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

// TestForwardInferBatchMatchesSingle checks the batched sweep is
// bit-identical to per-volume ForwardInfer for every method and precision,
// with and without a shared batch spectrum cache.
func TestForwardInferBatchMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in := tensor.S3(9, 8, 7)
	ker := tensor.RandomUniform(r, tensor.Cube(3), -1, 1)
	const k = 4
	vols := batchVolumes(r, in, k)

	cases := []struct {
		name string
		mth  Method
		prec Precision
	}{
		{"direct", Direct, PrecF64},
		{"fft/f64", FFT, PrecF64},
		{"fft/f32", FFT, PrecF32},
	}
	for _, tc := range cases {
		tr := NewTransformerPrec(in, ker.S, tensor.Dense(), tc.mth, tc.prec, false, nil)
		want := make([]*tensor.Tensor, k)
		for i, v := range vols {
			want[i] = tr.ForwardInfer(v, ker, nil)
		}
		got := tr.ForwardInferBatch(vols, ker, nil)
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: batched volume %d differs from single ForwardInfer (max |Δ| = %g)",
					tc.name, i, got[i].MaxAbsDiff(want[i]))
			}
		}
		var sc SpectrumCache
		sc.ResetBatch(vols)
		got = tr.ForwardInferBatch(vols, ker, &sc)
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: cached batched volume %d differs from single ForwardInfer", tc.name, i)
			}
		}
	}
}

// TestForwardProductInferBatchMatchesForward checks the product sweep: one
// kernel-spectrum fetch feeding K products, each finished with one inverse
// transform, equals the plain forward output per volume.
func TestForwardProductInferBatchMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	in := tensor.S3(10, 9, 6)
	ker := tensor.RandomUniform(r, tensor.Cube(3), -1, 1)
	const k = 3
	vols := batchVolumes(r, in, k)

	for _, prec := range []Precision{PrecF64, PrecF32} {
		tr := NewTransformerPrec(in, ker.S, tensor.Dense(), FFT, prec, false, nil)
		var sc SpectrumCache
		sc.ResetBatch(vols)
		prods := tr.ForwardProductInferBatch(vols, ker, &sc)
		if len(prods) != k {
			t.Fatalf("prec %v: got %d products, want %d", prec, len(prods), k)
		}
		for i, prod := range prods {
			got := tr.FinishForward(prod)
			want := tr.ForwardInfer(vols[i], ker, nil)
			if !got.Equal(want) {
				t.Errorf("prec %v: finished product %d differs from ForwardInfer (max |Δ| = %g)",
					prec, i, got.MaxAbsDiff(want))
			}
		}
	}
}

// TestSpectrumCacheBatch checks the batch cache contract: GetBatch computes
// each volume's spectrum once, GetAt returns the same shared buffers, and
// a second GetBatch is pure cache hits.
func TestSpectrumCacheBatch(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	in := tensor.S3(8, 8, 8)
	const k = 3
	vols := batchVolumes(r, in, k)
	m := tensor.S3(10, 10, 10)

	var cnt Counters
	var sc SpectrumCache
	sc.ResetBatch(vols)
	specs := sc.GetBatch(m, PrecF64, &cnt)
	if len(specs) != k {
		t.Fatalf("GetBatch returned %d spectra, want %d", len(specs), k)
	}
	ffts := cnt.Snapshot().FFTs
	if ffts != k {
		t.Fatalf("GetBatch computed %d FFTs, want %d", ffts, k)
	}
	for i := range vols {
		got := sc.GetAt(i, m, PrecF64, &cnt)
		if &got.C128[0] != &specs[i].C128[0] {
			t.Fatalf("GetAt(%d) returned a different buffer than GetBatch", i)
		}
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
	sc.ResetBatch(vols)
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
	sc.ResetBatch(vols)
	sc.GetBatch(m, PrecF64, nil)
	sc.ResetBatch(vols)
	if live := mempool.Spectra.Stats().LiveBytes; live != pre64 {
		t.Fatalf("ResetBatch leaked pooled bytes: live %d, want %d", live, pre64)
	}
}
