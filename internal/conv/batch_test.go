package conv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"znn/internal/fft"
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
// precision × width K, ForwardBatch(vols)[i] is bitwise equal to the
// one-volume Forward(vols[i]), and so is the FFT sum of one term whose
// spectrum comes from a shared cache through Transformer.Spectrum.
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
		check := func(entry string, k int, got []*tensor.Tensor) {
			t.Helper()
			if len(got) != k {
				t.Fatalf("%s K=%d: %s returned %d volumes", tc.name, k, entry, len(got))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Errorf("%s K=%d: %s volume %d differs from Forward (max |Δ| = %g)",
						tc.name, k, entry, i, got[i].MaxAbsDiff(want[i]))
				}
			}
		}
		for _, k := range []int{1, 3} {
			check("ForwardBatch", k, tr.ForwardBatch(vols[:k], ker, true))
		}
		if tc.mth.IsFFT() {
			got := make([]*tensor.Tensor, len(vols))
			for i, v := range vols {
				var sc SpectrumCache
				sc.Reset(v)
				got[i] = tensor.New(tr.OutShape())
				SpectralForward(got[i], []SpecTerm{{Tr: tr, Ker: ker, F: tr.Spectrum(&sc)}}, true)
			}
			check("cached Spectrum", len(vols), got)
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
			tr.ForwardBatch(others, ker, true)
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

// TestSpectrumCachePooledRelease checks the pooled regime: buffers come
// from the spectra pool of their precision and every byte returns on
// ReleaseAll (the inference round's release hook), for both precisions.
func TestSpectrumCachePooledRelease(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	in := tensor.S3(8, 8, 8)
	vols := batchVolumes(r, in, 2)
	tr64 := NewTransformerPrec(in, tensor.Cube(3), tensor.Dense(), FFT, PrecF64, false, nil)
	tr32 := NewTransformerPrec(in, tensor.Cube(3), tensor.Dense(), FFT, PrecF32, false, nil)

	pre64 := mempool.Spectra.Stats().LiveBytes
	pre32 := mempool.Spectra32.Stats().LiveBytes

	var sc SpectrumCache
	sc.SetPooled(true)
	sc.Reset(vols...)
	tr64.Spectrum(&sc)
	tr32.Spectrum(&sc)
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
	tr64.Spectrum(&sc)
	sc.Reset(vols...)
	if live := mempool.Spectra.Stats().LiveBytes; live != pre64 {
		t.Fatalf("Reset leaked pooled bytes: live %d, want %d", live, pre64)
	}
}

// TestSpectrumBuffersSkipPoolClear: the spectrum buffers drawn without the
// pool's clear — pooled SpectrumCache entries, specGet's kernel spectra,
// accumulators and gradient products, and fftOf's — are written in full
// before anything reads them. With every pooled chunk of their size filled
// with NaN, Forward, a two-term SpectralForward, SpectralBackward,
// KernelGrad and ValidFFT give the bits of a run whose chunks are zero, as
// fresh make'd buffers are, at both precisions.
func TestSpectrumBuffersSkipPoolClear(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	in, ks := tensor.S3(9, 8, 7), tensor.Cube(3)
	imgs, kers := batchVolumes(r, in, 2), batchVolumes(r, ks, 2)
	bwd := tensor.RandomUniform(r, in.ValidConv(ks, tensor.Dense()), -1, 1)
	fill := func(n int, v float64) {
		var c128 [][]complex128
		var c64 [][]complex64
		for range 8 {
			c128, c64 = append(c128, mempool.Spectra.Get(n)), append(c64, mempool.Spectra32.Get(n))
		}
		for i := range c128 {
			c128[i], c64[i] = c128[i][:cap(c128[i])], c64[i][:cap(c64[i])]
			for j := range c128[i] {
				c128[i][j], c64[i][j] = complex(v, v), complex64(complex(v, v))
			}
			mempool.Spectra.Put(c128[i])
			mempool.Spectra32.Put(c64[i])
		}
	}
	// run refills the pool's top chunks before each operation, since the one
	// before returns its own buffers, written, on top of them.
	run := func(prec Precision, v float64) []*tensor.Tensor {
		tr := NewTransformerPrec(in, ks, tensor.Dense(), FFT, prec, true, nil)
		tr2 := NewTransformerPrec(in, ks, tensor.Dense(), FFT, prec, false, nil)
		n := fft.PackedVolume(tr.TransformShape())
		var sc, sc2, bsc SpectrumCache
		for i, c := range []*SpectrumCache{&sc, &sc2, &bsc} {
			c.SetPooled(true)
			c.Reset([]*tensor.Tensor{imgs[0], imgs[1], bwd}[i])
		}
		sum, back := tensor.New(tr.OutShape()), tensor.New(in)
		var out []*tensor.Tensor
		for _, op := range []func() *tensor.Tensor{
			func() *tensor.Tensor { return tr.Forward(imgs[0], kers[0], &sc) },
			func() *tensor.Tensor {
				SpectralForward(sum, []SpecTerm{{Tr: tr2, Ker: kers[1], F: tr2.Spectrum(&sc2)}, {Tr: tr, Ker: kers[0], F: tr.Spectrum(&sc)}}, true)
				return sum
			},
			func() *tensor.Tensor {
				SpectralBackward(back, []SpecTerm{{Tr: tr, Ker: kers[0], F: tr.Spectrum(&bsc)}})
				return back
			},
			func() *tensor.Tensor { return tr.KernelGrad(imgs[0], bwd) },
			func() *tensor.Tensor { return ValidFFT(imgs[0], kers[0], tensor.Dense()) },
		} {
			fill(n, v)
			out = append(out, op())
		}
		for _, c := range []*SpectrumCache{&sc, &sc2, &bsc} {
			c.ReleaseAll()
		}
		tr.ReleaseKernelSpectra()
		tr2.ReleaseKernelSpectra()
		return out
	}
	names := []string{"Forward", "SpectralForward", "SpectralBackward", "KernelGrad", "ValidFFT"}
	for _, prec := range []Precision{PrecF64, PrecF32} {
		want, got := run(prec, 0), run(prec, math.NaN())
		for i, name := range names {
			if at := sameBits(got[i].Data, want[i].Data); at >= 0 {
				t.Errorf("%v %s: voxel %d is %v over NaN-filled pool chunks, %v over zeroed ones", prec, name, at, got[i].Data[at], want[i].Data[at])
			}
		}
	}
}
