package conv

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

// TunePolicy selects how the autotuner decides between direct and FFT
// convolution for a layer ("ZNN performs layerwise auto-tuning to choose
// between FFT-based or direct convolution for each layer", Section IV).
type TunePolicy int

const (
	// TuneModel chooses by the Table II cost formulas (deterministic).
	TuneModel TunePolicy = iota
	// TuneMeasure times the primitive operations on this machine and
	// chooses by measured per-round layer cost.
	TuneMeasure
	// TuneForceDirect always chooses direct convolution.
	TuneForceDirect
	// TuneForceFFT always chooses FFT convolution (packed r2c spectra).
	TuneForceFFT
)

func (p TunePolicy) String() string {
	switch p {
	case TuneModel:
		return "model"
	case TuneMeasure:
		return "measure"
	case TuneForceDirect:
		return "force-direct"
	case TuneForceFFT:
		return "force-fft"
	default:
		return "unknown"
	}
}

// LayerGeom describes one fully connected convolutional layer for tuning
// purposes: f input nodes, fPrime output nodes, input image shape, kernel
// shape and sparsity. Density is the mean nonzero fraction of the layer's
// kernels in (0, 1]; zero means unknown and is treated as dense. It feeds
// Direct's cost, which charges the forward and backward passes only for the
// nonzero taps the tap-list kernel runs.
type LayerGeom struct {
	In      tensor.Shape
	Kernel  tensor.Shape
	Sp      tensor.Sparsity
	F       int     // input width
	FPrime  int     // output width
	Density float64 // mean kernel nonzero fraction; 0 = unknown (dense)
}

// TransformShape returns the common FFT shape the spectral methods would
// use for this layer (exported for the execution planner's byte model).
func (g LayerGeom) TransformShape() tensor.Shape {
	return transformShape(g.In, g.Kernel, g.Sp)
}

// density returns the effective kernel density in (0, 1].
func (g LayerGeom) density() float64 {
	if g.Density <= 0 || g.Density > 1 {
		return 1
	}
	return g.Density
}

// f32FFTCostFactor discounts the modeled FFT cost when the spectral path
// runs in float32. The flop count is unchanged and an isolated transform
// is nearly precision-neutral (scalar butterflies are compute-bound), but
// the quantity the tuner predicts is per-round layer cost, and measured
// spectral training rounds — where spectrum traffic, pool zeroing and
// allocation volume halve — run ≈1.78× faster at f32 at 96³-class shapes
// (see BenchmarkSpectralRound96*). The factor is the inverse of that
// measured end-to-end ratio, applied to the whole spectral term as a
// bandwidth proxy; it shifts the direct-vs-FFT crossover toward FFT.
const f32FFTCostFactor = 0.56

// taps returns the number of kernel taps Direct's forward and backward
// passes run per output voxel: max(density·|k|, 1).
func (g LayerGeom) taps() float64 {
	return math.Max(g.density()*float64(g.Kernel.Volume()), 1)
}

// Autotuner caches per-geometry decisions. The zero value uses TuneModel at
// float64 precision; set Precision to PrecF32 when the layers will run the
// reduced-precision spectral path, so both the cost model and the measured
// primitives reflect its halved bandwidth.
type Autotuner struct {
	Policy    TunePolicy
	Precision Precision

	mu    sync.Mutex
	cache map[LayerGeom]Method
}

// Choose returns the convolution method for the layer, caching the answer.
func (a *Autotuner) Choose(g LayerGeom) Method {
	switch a.Policy {
	case TuneForceDirect:
		return Direct
	case TuneForceFFT:
		return FFT
	}
	a.mu.Lock()
	if m, ok := a.cache[g]; ok {
		a.mu.Unlock()
		return m
	}
	a.mu.Unlock()
	var m Method
	if a.Policy == TuneMeasure {
		m = measureChoice(g, a.Precision)
	} else {
		m = modelChoice(g, a.Precision)
	}
	a.mu.Lock()
	if a.cache == nil {
		a.cache = map[LayerGeom]Method{}
	}
	a.cache[g] = m
	a.mu.Unlock()
	return m
}

// modelChoice applies the Table II totals: direct costs
// f′·f·n′³·(2·taps + k³) multiply-adds per round, the forward and backward
// passes running only the nonzero taps and the kernel gradient every tap
// (3·f′·f·n′³·k³ for a dense kernel); memoized FFT costs
// 6Ch·log₂(n³)·[f′+f+f′·f] + 12·f′·f·h, where h = (X/2+1)·Y·Z is the
// Hermitian-packed coefficient count — real-input transforms and packed
// pointwise products do roughly half the work the paper's full-complex
// formula (h = n³) charges, which shifts the crossover toward FFT. At
// PrecF32 the spectral term is further discounted by f32FFTCostFactor
// (halved bandwidth on a bandwidth-bound path).
func modelChoice(g LayerGeom, prec Precision) Method {
	out := g.In.ValidConv(g.Kernel, g.Sp)
	f, fp := float64(g.F), float64(g.FPrime)
	kv := float64(g.Kernel.Volume())
	ov := float64(out.Volume())
	direct := fp * f * ov * (2*g.taps() + kv)
	m := transformShape(g.In, g.Kernel, g.Sp)
	nv := float64(m.Volume())
	hv := float64(fft.PackedVolume(m))
	fftCost := 6*FFTConstant*hv*math.Log2(math.Max(nv, 2))*(fp+f+fp*f) +
		12*fp*f*hv
	if prec == PrecF32 {
		fftCost *= f32FFTCostFactor
	}
	if fftCost < direct {
		return FFT
	}
	return Direct
}

// measureChoice times the primitive operations of both methods on this
// machine and compares estimated per-round layer costs. The estimates
// mirror the implementation: per round the FFT path performs (f+f′) shared
// image transforms plus, per edge, one kernel transform, three pointwise
// products, three inverse transforms and two spectrum reflections; the
// direct path performs three direct convolutions per edge, the forward and
// backward ones timed at the layer's kernel density. The FFT
// primitives timed are the packed r2c ones at the tuner's precision, since
// Method FFT at that precision is what the tuner would select.
func measureChoice(g LayerGeom, prec Precision) Method {
	rng := rand.New(rand.NewSource(12345))
	img := tensor.RandomUniform(rng, g.In, -1, 1)
	ker := tensor.RandomUniform(rng, g.Kernel, -1, 1)
	tDirect := timeOp(directOp(img, ker, g.Sp))

	tFFT, tInv, tMul, tRefl := measureSpectralPrimitives(g, img, prec)

	f, fp := float64(g.F), float64(g.FPrime)
	edges := f * fp
	direct := 3 * edges * tDirect
	if g.density() < 1 {
		// Forward and backward skip zero taps; the kernel gradient is dense.
		direct = edges * (2*timeSparse(g, img, rng) + tDirect)
	}
	fftTotal := (f+fp)*tFFT + edges*(tFFT+3*tMul+3*tInv+2*tRefl)
	if fftTotal < direct {
		return FFT
	}
	return Direct
}

// timeSparse times one valid direct convolution with a kernel zeroed down
// to the layer's density: the tap count the real kernels present. Only
// layers whose kernels have structural zeros take this second timing, so
// a dense layer's choice rests on the one dense reading.
func timeSparse(g LayerGeom, img *tensor.Tensor, rng *rand.Rand) float64 {
	return timeOp(directOp(img, sparseKernel(rng, g.Kernel, g.density()), g.Sp))
}

// directOp returns the timed body of a direct measurement: like the
// spectral primitives it runs on buffers made before the clock starts, so a
// sample is not charged for allocating and zeroing an output volume.
func directOp(img, ker *tensor.Tensor, sp tensor.Sparsity) func() {
	out := tensor.New(img.S.ValidConv(ker.S, sp))
	tl := NewTapList(ker)
	return func() { validInto(out, img, tl, sp) }
}

// sparseKernel builds a random kernel with approximately the given nonzero
// density: nnz = max(1, round(density·volume)) taps at distinct positions.
func sparseKernel(rng *rand.Rand, ks tensor.Shape, density float64) *tensor.Tensor {
	ker := tensor.New(ks)
	n := len(ker.Data)
	nnz := int(math.Round(density * float64(n)))
	if nnz < 1 {
		nnz = 1
	}
	if nnz > n {
		nnz = n
	}
	for _, i := range rng.Perm(n)[:nnz] {
		ker.Data[i] = rng.Float64()*2 - 1
	}
	return ker
}

// measureSpectralPrimitives times one packed forward transform, inverse
// transform, pointwise product and spectrum reflection at the given
// precision.
func measureSpectralPrimitives(g LayerGeom, img *tensor.Tensor, prec Precision) (tFFT, tInv, tMul, tRefl float64) {
	if prec == PrecF32 {
		return timeSpectral[float32, complex64](g, img, &mempool.Spectra32)
	}
	return timeSpectral[float64, complex128](g, img, &mempool.Spectra)
}

// timeSpectral is the precision-generic body of measureSpectralPrimitives:
// the plans, pools and pointwise kernels are generic, so one copy serves
// both precisions (a skew between hand-maintained copies would skew the
// tuner's direct-vs-FFT decision at one precision only).
func timeSpectral[R tensor.Real, C fft.Complex](g LayerGeom, img *tensor.Tensor, pool *mempool.Pool[C]) (tFFT, tInv, tMul, tRefl float64) {
	m := transformShape(g.In, g.Kernel, g.Sp)
	plan := fft.NewPlan3ROf[R, C](m)
	pv := plan.PackedLen()
	imgR := tensor.ConvertOf[R](img)
	out := tensor.NewOf[R](g.In.ValidConv(g.Kernel, g.Sp))
	ox := g.Sp.X * (g.Kernel.X - 1)
	oy := g.Sp.Y * (g.Kernel.Y - 1)
	oz := g.Sp.Z * (g.Kernel.Z - 1)

	buf := pool.Get(pv)
	tFFT = timeOp(func() { plan.Forward(buf, imgR) })
	spec := append([]C(nil), buf...)
	tInv = timeOp(func() {
		copy(buf, spec)
		plan.Inverse(out, buf, ox, oy, oz)
	})
	other := pool.Get(pv)
	copy(other, spec)
	tMul = timeOp(func() { fft.MulInto(buf, spec, other) })
	tRefl = timeOp(func() { reflectSpectrumPackedInto(buf, spec, m, g.In) })
	pool.Put(buf)
	pool.Put(other)
	return
}

// ForwardFlops models the cost of one forward (inference) pass of a fully
// connected layer with the given method and precision, in arbitrary
// consistent units — the whole-network planner's per-layer cost term.
// Unlike modelChoice (which totals all three training phases) this counts
// the forward pass only: f′·f convolutions of the nonzero taps for Direct;
// for FFT, f shared image transforms, f′ inverse transforms at the summing
// nodes and f′·f pointwise products (kernel transforms are memoized across
// rounds and amortized separately by the planner's fused-K term).
func ForwardFlops(g LayerGeom, m Method, prec Precision) float64 {
	out := g.In.ValidConv(g.Kernel, g.Sp)
	f, fp := float64(g.F), float64(g.FPrime)
	ov := float64(out.Volume())
	switch m {
	case Direct:
		return fp * f * ov * g.taps()
	case FFT:
		ms := transformShape(g.In, g.Kernel, g.Sp)
		nv := float64(ms.Volume())
		hv := float64(fft.PackedVolume(ms))
		cost := 2*FFTConstant*hv*math.Log2(math.Max(nv, 2))*(f+fp) + 6*fp*f*hv
		if prec == PrecF32 {
			cost *= f32FFTCostFactor
		}
		return cost
	default:
		return math.Inf(1)
	}
}

// MeasureForwardSeconds times the primitive operations of the method on
// this machine and returns the estimated seconds of one forward pass of
// the layer — the TuneMeasure-calibrated counterpart of ForwardFlops.
func MeasureForwardSeconds(g LayerGeom, m Method, prec Precision) float64 {
	rng := rand.New(rand.NewSource(12345))
	img := tensor.RandomUniform(rng, g.In, -1, 1)
	f, fp := float64(g.F), float64(g.FPrime)
	switch m {
	case Direct:
		if g.density() < 1 {
			return fp * f * timeSparse(g, img, rng)
		}
		ker := tensor.RandomUniform(rng, g.Kernel, -1, 1)
		return fp * f * timeOp(directOp(img, ker, g.Sp))
	case FFT:
		tFFT, tInv, tMul, _ := measureSpectralPrimitives(g, img, prec)
		return f*tFFT + fp*tInv + fp*f*tMul
	default:
		return math.Inf(1)
	}
}

// timeOp returns the per-call seconds of f, using enough repetitions to get
// a stable reading without burning benchmark time.
func timeOp(f func()) float64 {
	f() // warm-up
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start).Seconds() / reps
}
