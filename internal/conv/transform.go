package conv

import (
	"fmt"
	"sync"

	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

// spectrumKey identifies a cached spectrum: the two precisions have
// different element types, so a node feeding a mix of edges keeps one entry
// per (transform shape, dtype) combination.
type spectrumKey struct {
	m    tensor.Shape
	prec Precision
}

// SpectrumCache shares the forward FFTs of one node's images among all
// edges that consume them ("the FFT of an image at a node can be shared by
// edges at that node", Section IV). The cache is keyed by transform shape
// and precision so a node feeding layers with different kernel sizes or
// dtypes keeps one spectrum per combination, and it holds one image — and
// lazily one spectrum per key — per volume. Reset points it at the images,
// every consumer sees the same buffers (Get/GetBatch), and the buffers are
// immutable until the next Reset or ReleaseAll. The engine keeps one cache
// per (node, volume) and fills it in the task that publishes the image,
// before any node sum reads it.
//
// Two allocation regimes coexist. A cache whose spectra a memoizing edge
// keeps uses GC-managed buffers: the edge retains references across the
// round boundary (its update task may run lazily during the next forward
// pass), so explicit reclamation would need reference counting. Every other
// cache — every inference round's, and a training round's where no edge
// memoizes — runs pooled (SetPooled): buffers come from the spectra pool of
// their precision and return to it through the round's release hook
// (ReleaseAll), killing the per-round spectrum garbage that sustained
// serving traffic otherwise produces.
type SpectrumCache struct {
	mu      sync.Mutex
	pooled  bool
	imgs    []*tensor.Tensor
	entries map[spectrumKey][]fft.Spectrum
}

// SetPooled selects the pooled allocation regime. It must be called before
// the first Get; pairing every pooled cache with a ReleaseAll is the
// caller's responsibility (RoundState.release is the engine's hook).
func (sc *SpectrumCache) SetPooled(pooled bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.pooled = pooled
}

// Reset points the cache at a node's images, one per volume of the round,
// discarding cached spectra (pooled buffers return to their pool). A passed
// slice is retained, not copied.
func (sc *SpectrumCache) Reset(imgs ...*tensor.Tensor) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.imgs = imgs
	sc.dropLocked()
}

// dropLocked discards all cached spectra, returning pooled buffers to
// their pool. Caller holds sc.mu.
func (sc *SpectrumCache) dropLocked() {
	if sc.pooled {
		for _, specs := range sc.entries {
			for _, s := range specs {
				if !s.IsNil() {
					s.Release()
				}
			}
		}
	}
	sc.entries = nil
}

// ReleaseAll discards every cached spectrum; pooled buffers go back to the
// spectra pool of their precision. This is the inference round's release
// hook — it must only run once no task can still read the buffers (after
// the round's task tree completed).
func (sc *SpectrumCache) ReleaseAll() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.dropLocked()
}

// Get returns the Hermitian-packed spectrum of the cached image (volume 0)
// at transform shape m and the given precision, computing it on first use.
// The returned buffer is shared and must be treated as immutable.
func (sc *SpectrumCache) Get(m tensor.Shape, prec Precision, c *Counters) fft.Spectrum {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.getLocked(0, m, prec, c)
}

// GetBatch returns the spectra of all cached images at one key, computing
// missing ones under a single lock hold — the entry point for transformer
// sweeps, where one kernel-spectrum fetch feeds a pointwise product per
// volume. The returned slice is shared; treat it and every buffer as
// immutable.
func (sc *SpectrumCache) GetBatch(m tensor.Shape, prec Precision, c *Counters) []fft.Spectrum {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i := range sc.imgs {
		sc.getLocked(i, m, prec, c)
	}
	return sc.entries[spectrumKey{m: m, prec: prec}]
}

// getLocked computes-or-returns the spectrum of image i at the key.
// Caller holds sc.mu.
func (sc *SpectrumCache) getLocked(i int, m tensor.Shape, prec Precision, c *Counters) fft.Spectrum {
	if len(sc.imgs) == 0 || sc.imgs[i] == nil {
		panic("conv: SpectrumCache.Get before Reset")
	}
	key := spectrumKey{m: m, prec: prec}
	specs := sc.entries[key]
	if specs == nil {
		specs = make([]fft.Spectrum, len(sc.imgs))
		if sc.entries == nil {
			sc.entries = map[spectrumKey][]fft.Spectrum{}
		}
		sc.entries[key] = specs
	}
	if !specs[i].IsNil() {
		return specs[i]
	}
	var buf fft.Spectrum
	if prec == PrecF32 {
		var b []complex64
		if sc.pooled {
			b = mempool.Spectra32.Get(fft.PackedVolume(m))
		} else {
			b = make([]complex64, fft.PackedVolume(m))
		}
		fft.NewPlan3ROf[float32, complex64](m).ForwardF64(b, sc.imgs[i])
		buf = fft.Spec64(b)
	} else {
		var b []complex128
		if sc.pooled {
			b = mempool.Spectra.Get(fft.PackedVolume(m))
		} else {
			b = make([]complex128, fft.PackedVolume(m))
		}
		fft.NewPlan3R(m).Forward(b, sc.imgs[i])
		buf = fft.Spec128(b)
	}
	c.addFFT(m, prec == PrecF32, false)
	specs[i] = buf
	return buf
}

// Method selects the convolution implementation for an edge.
type Method int

const (
	// Direct computes convolutions in the spatial domain.
	Direct Method = iota
	// FFT computes convolutions in the frequency domain using real-input
	// (r2c/c2r) transforms with Hermitian-packed spectra. Its element type
	// is selected by Precision.
	FFT
)

func (m Method) String() string {
	switch m {
	case Direct:
		return "direct"
	case FFT:
		return "fft"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IsFFT reports whether the method computes in the frequency domain.
func (m Method) IsFFT() bool { return m == FFT }

// Transformer executes the three convolution phases of one edge — forward,
// backward, kernel gradient — with a fixed method and precision, and
// implements FFT memoization (Table II): the kernel spectrum persists
// across rounds until the weight update invalidates it; with Memoize
// enabled the forward image spectrum and backward gradient spectrum are
// retained for the update, which then costs a single inverse transform.
//
// The scheduler's FORCE discipline (Section VI) makes the memo slots safe
// without extra synchronization beyond the internal mutex: an edge's update
// always executes before the edge's next forward pass overwrites the slots.
type Transformer struct {
	in    tensor.Shape    // input image shape n
	k     tensor.Shape    // kernel shape
	out   tensor.Shape    // valid output shape n − s(k−1)
	sp    tensor.Sparsity // sparsity s
	m     tensor.Shape    // common transform shape
	mth   Method
	prec  Precision
	mem   bool
	cnt   *Counters
	sv    int                               // packed spectrum coefficient count (Method FFT)
	p3r   *fft.Plan3R                       // packed real plan (Method FFT, PrecF64)
	p3r32 *fft.Plan3ROf[float32, complex64] // packed real plan (Method FFT, PrecF32)

	mu       sync.Mutex
	kerValid bool         // kernel spectra below are current
	kerF     fft.Spectrum // spectrum of the dilated kernel
	kerFRefl fft.Spectrum // spectrum of the reflected dilated kernel
	imgF     fft.Spectrum // memoized forward image spectrum (round-scoped)
	bwdF     fft.Spectrum // memoized backward gradient spectrum (round-scoped)
}

// NewTransformer builds a float64 transformer for an edge with the given
// geometry. counters may be nil.
func NewTransformer(in, k tensor.Shape, sp tensor.Sparsity, method Method, memoize bool, counters *Counters) *Transformer {
	return NewTransformerPrec(in, k, sp, method, PrecF64, memoize, counters)
}

// NewTransformerPrec builds a transformer with an explicit precision.
// Precision affects the FFT path only; Direct normalizes to PrecF64.
func NewTransformerPrec(in, k tensor.Shape, sp tensor.Sparsity, method Method, prec Precision, memoize bool, counters *Counters) *Transformer {
	out := in.ValidConv(k, sp)
	if !out.Valid() {
		panic(fmt.Sprintf("conv: kernel %v (sparsity %v) does not fit in image %v", k, sp, in))
	}
	if method != FFT {
		prec = PrecF64
	}
	t := &Transformer{
		in:   in,
		k:    k,
		out:  out,
		sp:   sp,
		m:    transformShape(in, k, sp),
		mth:  method,
		prec: prec,
		mem:  memoize,
		cnt:  counters,
	}
	t.initMethod()
	return t
}

// initMethod derives the method-dependent fields (spectrum length, plans)
// from t.mth and t.prec.
func (t *Transformer) initMethod() {
	t.sv, t.p3r, t.p3r32 = 0, nil, nil
	switch t.mth {
	case Direct:
	case FFT:
		t.sv = fft.PackedVolume(t.m)
		if t.prec == PrecF32 {
			t.p3r32 = fft.NewPlan3ROf[float32, complex64](t.m)
		} else {
			t.p3r = fft.NewPlan3R(t.m)
		}
	default:
		panic(fmt.Sprintf("conv: unknown method %v", t.mth))
	}
}

// SetPrecision switches the element type of the packed spectral path. It
// discards cached kernel spectra and memo slots (their layout changes) and
// is a no-op for spatial-method transformers. It must not race with the
// transform phases: the engine calls it at compile time, before any round
// runs.
func (t *Transformer) SetPrecision(p Precision) {
	if t.mth == FFT {
		t.SetMethodPrec(FFT, p)
	}
}

// SetMethodPrec rebuilds the transformer for a new (method, precision)
// pair — the execution planner's hook for emitting a whole-network plan
// into an already-built graph. Every method-dependent derived field is
// recomputed and every cached artifact whose layout depends on the pair
// (kernel spectra, memo slots) is discarded. Like SetPrecision
// it is compile-time only: it must not race with any transform phase.
func (t *Transformer) SetMethodPrec(m Method, p Precision) {
	if m != FFT {
		p = PrecF64 // spatial paths are float64-only
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mth == m && t.prec == p {
		return
	}
	t.mth = m
	t.prec = p
	t.initMethod()
	t.releaseKernelSpectraLocked()
	t.imgF = fft.Spectrum{}
	t.bwdF = fft.Spectrum{}
}

// Method returns the convolution method in use.
func (t *Transformer) Method() Method { return t.mth }

// Precision returns the spectral element type in use.
func (t *Transformer) Precision() Precision { return t.prec }

// OutShape returns the forward output shape.
func (t *Transformer) OutShape() tensor.Shape { return t.out }

// InShape returns the forward input shape.
func (t *Transformer) InShape() tensor.Shape { return t.in }

// Halo returns s(k−1), the zero border by which the direct backward pass
// pads the edge's backward image.
func (t *Transformer) Halo() tensor.Shape { return t.in.Sub(t.out) }

// TransformShape returns the common FFT shape (meaningful for FFT methods).
func (t *Transformer) TransformShape() tensor.Shape { return t.m }

// specGet draws a spectrum buffer of the method's length from the pool of
// the method's precision.
func (t *Transformer) specGet() fft.Spectrum {
	if t.prec == PrecF32 {
		return fft.Spec64(mempool.Spectra32.Get(t.sv))
	}
	return fft.Spec128(mempool.Spectra.Get(t.sv))
}

// specInto computes the forward spectrum of src into buf (length t.sv) at
// the transform shape and the transformer's precision.
func (t *Transformer) specInto(buf fft.Spectrum, src *tensor.Tensor) {
	if t.prec == PrecF32 {
		t.p3r32.ForwardF64(buf.C64, src)
	} else {
		t.p3r.Forward(buf.C128, src)
	}
	t.cnt.addFFT(t.m, t.prec == PrecF32, false)
}

// newSpec allocates a GC-managed spectrum buffer (memo slots live across
// round boundaries with no single release point, so they bypass the pool —
// see SpectrumCache) and fills it with the forward spectrum of src.
func (t *Transformer) newSpec(src *tensor.Tensor) fft.Spectrum {
	var buf fft.Spectrum
	if t.prec == PrecF32 {
		buf = fft.Spec64(make([]complex64, t.sv))
	} else {
		buf = fft.Spec128(make([]complex128, t.sv))
	}
	t.specInto(buf, src)
	return buf
}

// inverseStore inverts spec (consuming the buffer) and stores the
// sub-volume at (ox,oy,oz) into out, with the 1/N normalization.
func (t *Transformer) inverseStore(out *tensor.Tensor, spec fft.Spectrum, ox, oy, oz int) {
	if t.prec == PrecF32 {
		t.p3r32.InverseF64(out, spec.C64, ox, oy, oz)
	} else {
		t.p3r.Inverse(out, spec.C128, ox, oy, oz)
	}
	t.cnt.addFFT(t.m, t.prec == PrecF32, true)
}

// reflectInto applies the conjugate-reflection phase pass for a signal of
// the given support, at the transformer's precision.
func (t *Transformer) reflectInto(dst, src fft.Spectrum, support tensor.Shape) {
	if t.prec == PrecF32 {
		reflectSpectrumPackedInto(dst.C64, src.C64, t.m, support)
	} else {
		reflectSpectrumPackedInto(dst.C128, src.C128, t.m, support)
	}
	t.cnt.addReflect(t.m)
}

// kernelSpectra returns the (possibly cached) spectra of the dilated kernel
// and its reflection, computing them if the update invalidated them. The
// buffers are recomputed in place across invalidations: the kernel changes
// every round, so releasing and reallocating two transform-sized buffers
// per edge per round was pure GC churn on the hot path. In-place reuse is
// safe under the FORCE discipline that already protects invalidation — an
// edge's update (which invalidates) always runs before the edge's next
// forward pass reads the spectra.
func (t *Transformer) kernelSpectra(ker *tensor.Tensor) (kf, kfr fft.Spectrum) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.kerValid {
		if t.kerF.IsNil() {
			// Pool-backed so PeakLiveBytes covers the kernel-spectra
			// working set (the plan byte model's 2·f·f′ term). The
			// buffers stay checked out across rounds — recomputed in
			// place on invalidation — and return to the pool only when
			// the layout changes or the engine closes.
			if t.prec == PrecF32 {
				t.kerF = fft.Spec64(mempool.Spectra32.Get(t.sv))
				t.kerFRefl = fft.Spec64(mempool.Spectra32.Get(t.sv))
			} else {
				t.kerF = fft.Spec128(mempool.Spectra.Get(t.sv))
				t.kerFRefl = fft.Spec128(mempool.Spectra.Get(t.sv))
			}
		}
		d := ker.Dilate(t.sp)
		t.specInto(t.kerF, d)
		t.reflectInto(t.kerFRefl, t.kerF, d.S)
		t.kerValid = true
	}
	return t.kerF, t.kerFRefl
}

// ReleaseKernelSpectra returns the pooled kernel-spectra buffers and marks
// them stale. The engine calls it on Close so a dead engine's transformers
// do not inflate the pools' live-byte baseline (one live engine per graph
// is the documented rule, so the next Compile/round recomputes from
// scratch). Safe to call repeatedly; a transformer that never computed
// spectra releases nothing.
func (t *Transformer) ReleaseKernelSpectra() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.releaseKernelSpectraLocked()
}

func (t *Transformer) releaseKernelSpectraLocked() {
	t.kerValid = false
	t.kerF.Release()
	t.kerFRefl.Release()
	t.kerF = fft.Spectrum{}
	t.kerFRefl = fft.Spectrum{}
}

// InvalidateKernel marks the cached kernel spectra stale; the update task
// calls this after changing the weights. The buffers are retained for
// in-place recomputation. Direct caches nothing: it builds its tap list
// from the live kernel on every call.
func (t *Transformer) InvalidateKernel() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.kerValid = false
}

// Forward computes the edge's forward pass for one volume: the valid sparse
// convolution of img with ker. sc, when non-nil, supplies the node-shared
// image spectrum. With memoization enabled the image spectrum is retained
// for KernelGrad.
func (t *Transformer) Forward(img, ker *tensor.Tensor, sc *SpectrumCache) *tensor.Tensor {
	return t.ForwardBatch([]*tensor.Tensor{img}, ker, sc, false)[0]
}

// ForwardBatch computes the edge's forward pass for every volume of a
// round's sweep, each the one-term case of the node sums: SpectralForward on
// the FFT path, SumForward on the spatial one. sc, when non-nil, must hold
// the same images and supplies their spectra.
//
// infer suppresses the memoization side effect. Concurrent forward-only
// rounds share one Transformer, and the imgF memo slot is round-scoped
// *training* state: if an inference pass overwrote it, a lazy update task
// from the surrounding training rounds could consume the wrong image
// spectrum. The memo slot holds one volume, which is all a training round
// carries.
func (t *Transformer) ForwardBatch(imgs []*tensor.Tensor, ker *tensor.Tensor, sc *SpectrumCache, infer bool) []*tensor.Tensor {
	for _, img := range imgs {
		if img.S != t.in {
			panic(fmt.Sprintf("conv: forward image %v, want %v", img.S, t.in))
		}
	}
	if t.mth.IsFFT() && t.mem && !infer && len(imgs) != 1 {
		panic(fmt.Sprintf("conv: memoizing forward over %d volumes", len(imgs)))
	}
	var imgFs []fft.Spectrum
	if t.mth.IsFFT() && sc != nil {
		imgFs = sc.GetBatch(t.m, t.prec, t.cnt)
		if len(imgFs) != len(imgs) {
			panic(fmt.Sprintf("conv: spectrum cache holds %d images, sweep has %d", len(imgFs), len(imgs)))
		}
	}
	outs := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		outs[i] = tensor.New(t.out)
		switch {
		case !t.mth.IsFFT():
			SumForward(outs[i], 0, t.out.Z, []Term{{Tr: t, Img: img, Ker: ker}})
		case imgFs != nil:
			SpectralForward(outs[i], []SpecTerm{{Tr: t, Ker: ker, F: imgFs[i]}}, infer)
		default:
			SpectralForward(outs[i], []SpecTerm{{Tr: t, Ker: ker, F: t.newSpec(img)}}, infer)
		}
	}
	return outs
}

// Backward computes the edge's backward pass: the full convolution of the
// backward image bwd (shape n′) with the reflected kernel, yielding shape
// n — the one-term case of SpectralBackward or SumBackward. sc, when
// non-nil, supplies the spectrum of bwd.
func (t *Transformer) Backward(bwd, ker *tensor.Tensor, sc *SpectrumCache) *tensor.Tensor {
	if bwd.S != t.out {
		panic(fmt.Sprintf("conv: backward image %v, want %v", bwd.S, t.out))
	}
	out := tensor.New(t.in)
	switch {
	case !t.mth.IsFFT():
		var pc PadCache
		pc.Reset(bwd)
		SumBackward(out, 0, t.in.Z, []Term{{Tr: t, Img: pc.Get(t.Halo()), Ker: ker}})
		pc.Release()
	case sc != nil:
		SpectralBackward(out, []SpecTerm{{Tr: t, Ker: ker, F: t.Spectrum(sc)}})
	default:
		SpectralBackward(out, []SpecTerm{{Tr: t, Ker: ker, F: t.newSpec(bwd)}})
	}
	return out
}

// KernelGrad computes the gradient of the loss with respect to the kernel:
// the valid convolution of the reflected forward image with the backward
// image, subsampled at the sparsity stride. With memoization enabled and
// both phase spectra retained, it costs one spectrum reflection, one
// pointwise product and one inverse transform (Table II, memoized update).
// The memo slots are consumed: a second call recomputes from the images.
func (t *Transformer) KernelGrad(img, bwd *tensor.Tensor) *tensor.Tensor {
	if img.S != t.in || bwd.S != t.out {
		panic(fmt.Sprintf("conv: kernel grad shapes img %v bwd %v, want %v and %v",
			img.S, bwd.S, t.in, t.out))
	}
	if !t.mth.IsFFT() {
		// Dense: skipping zero taps is a strategy for the current weights,
		// not a pruning mask on updates.
		g := KernelGradDirect(img, bwd, t.k, t.sp)
		t.cnt.addDirect(int64(t.out.Volume() * t.k.Volume()))
		return g
	}
	t.mu.Lock()
	imgF, bwdF := t.imgF, t.bwdF
	t.imgF, t.bwdF = fft.Spectrum{}, fft.Spectrum{}
	t.mu.Unlock()
	if imgF.IsNil() {
		imgF = t.newSpec(img)
	}
	if bwdF.IsNil() {
		bwdF = t.newSpec(bwd)
	}
	// F(reflect(img)) from the memoized F(img) via the phase trick.
	prod := t.specGet()
	t.reflectInto(prod, imgF, t.in)
	fft.MulSpecInto(prod, prod, bwdF)
	t.cnt.addMul(t.m)
	// Full-convolution values at offsets (n′−1) + s·a, a = 0..k−1.
	full := tensor.New(tensor.Shape{
		X: t.sp.X*(t.k.X-1) + 1,
		Y: t.sp.Y*(t.k.Y-1) + 1,
		Z: t.sp.Z*(t.k.Z-1) + 1,
	})
	t.inverseStore(full, prod, t.out.X-1, t.out.Y-1, t.out.Z-1)
	prod.Release()
	return full.Subsample(0, 0, 0, t.sp, t.k)
}

// HasMemoizedSpectra reports whether both round-scoped memo slots are
// populated (used by tests to verify the memoization lifecycle).
func (t *Transformer) HasMemoizedSpectra() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.imgF.IsNil() && !t.bwdF.IsNil()
}

// --- Spectral node sums --------------------------------------------------
//
// A node's FFT edges that are pairwise SpectralCompatible form one spectral
// group: the node multiply-accumulates their FFT-domain products into one
// spectrum and runs a single inverse transform, the execution model the
// paper's Table II costs assume (f′ inverse transforms per layer forward
// pass instead of f′·f). The operand spectra come from the node caches that
// the publishing tasks filled (Spectrum), so a group never transforms
// another node's image.

// SpectralCompatible reports whether two transformers may share a node's
// spectral sum: same FFT method and precision (so the buffers have the same
// layout, length and element type), transform shape, kernel shape and
// sparsity (the crop offsets must agree).
func (t *Transformer) SpectralCompatible(o *Transformer) bool {
	return t.mth.IsFFT() && t.mth == o.mth && t.prec == o.prec &&
		t.m == o.m && t.k == o.k && t.sp == o.sp && t.out == o.out && t.in == o.in
}

// Memoizes reports whether the transformer keeps its phase spectra for
// KernelGrad: an FFT transformer built with memoization.
func (t *Transformer) Memoizes() bool { return t.mth.IsFFT() && t.mem }

// Spectrum returns the spectrum of sc's image (volume 0) at the
// transformer's transform shape and precision, computing it on first use.
// The buffer is shared; treat it as immutable.
func (t *Transformer) Spectrum(sc *SpectrumCache) fft.Spectrum { return sc.Get(t.m, t.prec, t.cnt) }

// SpecTerm is one edge of a spectral node sum: the edge's transformer, its
// kernel and the spectrum F of its operand at the edge's transform shape
// (Transformer.Spectrum).
type SpecTerm struct {
	Tr  *Transformer
	Ker *tensor.Tensor
	F   fft.Spectrum
}

// SpectralForward sets out to Σ valid(x_i, w_i) over the terms of one
// spectral group, each F the spectrum of x_i at the group's transform
// shape: F(x_i)·F(w_i) multiply-accumulates in term order into one pooled
// spectrum, with no per-term product buffer, which is inverted once and
// cropped to the valid region. Unless infer is set, a memoizing term
// records F for its KernelGrad.
func SpectralForward(out *tensor.Tensor, terms []SpecTerm, infer bool) {
	spectralSum(out, terms, false, !infer)
}

// SpectralBackward sets out to Σ full(g_j, reflect(w_j)) over the terms of
// one spectral group, each F the spectrum of g_j: the mirror image of
// SpectralForward over a node's out-edges. A memoizing term records F for
// its KernelGrad.
func SpectralBackward(out *tensor.Tensor, terms []SpecTerm) { spectralSum(out, terms, true, true) }

// spectralSum is the one spectral node kernel. The accumulator returns to
// its pool on every path, a panicking term included.
func spectralSum(out *tensor.Tensor, terms []SpecTerm, bwd, record bool) {
	t := terms[0].Tr
	want, at := t.out, t.Halo()
	if bwd {
		want, at = t.in, tensor.Shape{}
	}
	if out.S != want {
		panic(fmt.Sprintf("conv: spectral sum into %v, want %v", out.S, want))
	}
	acc := t.specGet()
	defer acc.Release()
	for i, tm := range terms {
		tr := tm.Tr
		if !t.SpectralCompatible(tr) || tm.Ker.S != tr.k {
			panic(fmt.Sprintf("conv: spectral sum term kernel %v (method %v) does not match the group's %v", tm.Ker.S, tr.mth, t.k))
		}
		kf, kfr := tr.kernelSpectra(tm.Ker)
		if bwd {
			kf = kfr
		}
		if i == 0 {
			fft.MulSpecInto(acc, tm.F, kf)
		} else {
			fft.MulAccSpecInto(acc, tm.F, kf)
		}
		tr.cnt.addMul(tr.m)
		if record && tr.mem {
			tr.mu.Lock()
			if bwd {
				tr.bwdF = tm.F
			} else {
				tr.imgF = tm.F
			}
			tr.mu.Unlock()
		}
	}
	t.inverseStore(out, acc, at.X, at.Y, at.Z)
}

// KeepBackward records the spectrum of sc's backward image for a
// memoizing KernelGrad without computing the backward sum: the edge's
// source is a graph input, whose backward image nobody reads. Other
// transformers have nothing to record.
func (t *Transformer) KeepBackward(sc *SpectrumCache) {
	if t.Memoizes() {
		bwdF := t.Spectrum(sc)
		t.mu.Lock()
		t.bwdF = bwdF
		t.mu.Unlock()
	}
}
