package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"znn"
	"znn/internal/conv"
	"znn/internal/data"
	"znn/internal/fft"
	"znn/internal/graph"
	"znn/internal/mempool"
	"znn/internal/net"
	"znn/internal/ops"
	"znn/internal/sched"
	"znn/internal/tensor"
	"znn/internal/wsum"
)

const (
	// trainEta keeps both nets' losses finite and falling on boundary data;
	// the library default of 0.01 saturates the logistic outputs within a
	// few updates, after which every update is the same arithmetic on zeros.
	trainEta = 1e-4
	// forwardTol bounds the difference between the engine's first forward
	// pass and the serial reference executor.
	forwardTol = 1e-9
	// lossRelTol bounds the relative difference between the loss after
	// lossCheckUpdates updates at two workers and at one. Wait-free summation
	// adds in arrival order, so the two are not bitwise equal.
	lossRelTol = 1e-6
	// lossCheckUpdates is the fixed update count the loss is compared at.
	lossCheckUpdates = 8
	// warmUpdates are untimed, the first of them inside setup.
	warmUpdates = 3
	// sampleRing is how many distinct training samples a run cycles through.
	sampleRing = 8
)

// trainNet is the part of znn.Network and znn.Model the training workloads
// use, so one loop drives both.
type trainNet struct {
	train func(in, des *znn.Tensor) (float64, error)
	infer func(in *znn.Tensor) ([]*znn.Tensor, error)
	close func() error
}

// convClass is one conv-edge geometry whose three phases are timed per
// method; the name is the kernel extent the metric rows carry.
type convClass struct {
	name string
	in   znn.Shape
	k    znn.Shape
}

// trainSpec is what differs between the two training workloads.
type trainSpec struct {
	in, out   znn.Shape
	mode      znn.ConvMode // how the workload's own net convolves
	build     func(mode znn.ConvMode, nworkers int) (*trainNet, error)
	reference func() (*net.Network, error)
	classes   []convClass // the first is the one fft and wsum are timed at
}

type trainInst struct {
	c       *runCtx
	spec    trainSpec
	samples []data.Sample
	nw      *trainNet
	updates int       // updates applied to nw so far
	losses  []float64 // loss of each of the first lossCheckUpdates updates
	lat     []float64 // seconds of every timed update of this net
}

func startTrain(c *runCtx, spec trainSpec) (instance, error) {
	t := &trainInst{c: c, spec: spec}
	p := data.NewBoundaryProvider(spec.in, spec.out, c.seed)
	p.SetCentered(true)
	for i := 0; i < sampleRing; i++ {
		t.samples = append(t.samples, p.Next())
	}
	return t, nil
}

// step applies update number i of the run's sample sequence to nw.
func (t *trainInst) step(nw *trainNet, i int) (float64, error) {
	s := t.samples[i%len(t.samples)]
	loss, err := nw.train(s.Input, s.Desired[0])
	if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
		err = fmt.Errorf("update %d: loss is %v", i, loss)
	}
	return loss, err
}

func (t *trainInst) next() error {
	loss, err := t.step(t.nw, t.updates)
	if err != nil {
		return err
	}
	if t.updates < lossCheckUpdates {
		t.losses = append(t.losses, loss)
	}
	t.updates++
	return nil
}

func (t *trainInst) setup() (float64, error) {
	if t.nw != nil {
		if err := t.nw.close(); err != nil {
			return 0, err
		}
	}
	t.updates, t.losses, t.lat = 0, nil, nil
	t0 := time.Now()
	nw, err := t.spec.build(t.spec.mode, workers)
	if err != nil {
		return 0, err
	}
	t.nw = nw
	if err := t.next(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func (t *trainInst) warm() error {
	for t.updates < warmUpdates {
		if err := t.next(); err != nil {
			return err
		}
	}
	return nil
}

func (t *trainInst) measure(d time.Duration, minOps int, rec *recorder, parent int) section {
	run := func() section {
		return runOps(d, minOps, rec, parent, func(sp int) (float64, error) {
			call := rec.begin("znn.Train", sp, 0)
			err := t.next()
			rec.end(call)
			return float64(t.spec.out.Volume()), err
		}, nil)
	}
	var s section
	if rec == nil {
		s = run()
	} else {
		s = counted(run)
	}
	t.lat = append(t.lat, s.lat...)
	return s
}

func (t *trainInst) verify() []check {
	return []check{t.verifyForward(), t.verifyLoss()}
}

// verifyForward compares the engine's first forward pass, on a fresh net of
// the same seed, with the serial reference executor.
func (t *trainInst) verifyForward() check {
	const name = "forward_vs_serial"
	fresh, err := t.spec.build(t.spec.mode, workers)
	if err != nil {
		return okCheck(name, false, "build: %v", err)
	}
	got, err := fresh.infer(t.samples[0].Input)
	fresh.close()
	if err != nil {
		return okCheck(name, false, "infer: %v", err)
	}
	ref, err := t.spec.reference()
	if err != nil {
		return okCheck(name, false, "reference: %v", err)
	}
	want, err := ref.ForwardSerial([]*tensor.Tensor{t.samples[0].Input})
	if err != nil {
		return okCheck(name, false, "reference: %v", err)
	}
	if t.c.corrupt {
		want[0].Data[0] += 1e-3
	}
	diff := got[0].MaxAbsDiff(want[0])
	return okCheck(name, diff <= forwardTol, "max abs diff %.3g, tolerance %.3g", diff, forwardTol)
}

// verifyLoss compares the loss after a fixed number of updates with a
// one-worker run of the same seed and samples.
func (t *trainInst) verifyLoss() check {
	const name = "loss_vs_one_worker"
	n := len(t.losses)
	one, err := t.spec.build(t.spec.mode, 1)
	if err != nil {
		return okCheck(name, false, "build: %v", err)
	}
	defer one.close()
	var loss float64
	for i := 0; i < n; i++ {
		if loss, err = t.step(one, i); err != nil {
			return okCheck(name, false, "%v", err)
		}
	}
	rel := math.Abs(t.losses[n-1]-loss) / math.Abs(loss)
	return okCheck(name, n == lossCheckUpdates && rel <= lossRelTol,
		"loss after %d updates %.12g at %d workers, %.12g at 1, relative diff %.3g, tolerance %.3g",
		n, t.losses[n-1], workers, loss, rel, lossRelTol)
}

func (t *trainInst) close() {
	if t.nw != nil {
		t.nw.close()
	}
}

// typicalUpdate builds a net and returns the interquartile mean of the
// seconds of n updates after the warm-up ones.
func (t *trainInst) typicalUpdate(rec *recorder, parent int, name string, mode znn.ConvMode, nworkers, n int) (float64, error) {
	nw, err := t.spec.build(mode, nworkers)
	if err != nil {
		return 0, err
	}
	defer nw.close()
	for i := 0; i < warmUpdates; i++ {
		if _, err := t.step(nw, i); err != nil {
			return 0, err
		}
	}
	i := warmUpdates
	tm := timeCalls(rec, parent, name, n, 0, nil, func() {
		if _, e := t.step(nw, i); e != nil && err == nil {
			err = e
		}
		i++
	})
	return tm.mid, err
}

func (t *trainInst) layers(rec *recorder, parent int) (map[string]float64, error) {
	m := map[string]float64{}
	n := t.c.scaled(10, 2)
	minTime := time.Duration(t.c.scaled(150, 1)) * time.Millisecond
	rng := rand.New(rand.NewSource(t.c.seed))

	// conv: the three phases of one edge, per method, at each kernel class;
	// conv.gflops is the forward pass of the first class by the method the
	// workload's own net runs it with.
	for i, cl := range t.spec.classes {
		for _, mth := range []conv.Method{conv.Direct, conv.FFT} {
			cnt := &conv.Counters{}
			tr := conv.NewTransformer(cl.in, cl.k, tensor.Dense(), mth, false, cnt)
			img := tensor.RandomUniform(rng, cl.in, -1, 1)
			ker := tensor.RandomUniform(rng, cl.k, -1, 1)
			bwd := tensor.RandomUniform(rng, tr.OutShape(), -1, 1)
			perVoxel := 1e9 / float64(cl.in.Volume())
			row := func(phase string) string {
				return fmt.Sprintf("conv.%s_ns_per_voxel.%s.%s", phase, mth, cl.name)
			}
			tr.Forward(img, ker, nil) // computes the kernel spectra once, as a round does
			before := cnt.Snapshot()
			fwd := timeCalls(rec, parent, row("fwd"), n, minTime, nil, func() { tr.Forward(img, ker, nil) })
			work := cnt.Snapshot().Sub(before)
			m[row("fwd")] = perVoxel * fwd.median
			m[row("bwd")] = perVoxel * timeCalls(rec, parent, row("bwd"), n, minTime, nil, func() { tr.Backward(bwd, ker, nil) }).median
			m[row("grad")] = perVoxel * timeCalls(rec, parent, row("grad"), n, minTime, nil, func() { tr.KernelGrad(img, bwd) }).median
			if i == 0 && (mth == conv.FFT) == (t.spec.mode == znn.ForceFFT) {
				// A multiply-add pair is two operations, a complex one eight.
				m["conv.gflops"] = float64(work.FFTFlops+2*work.DirectFlops+8*work.MulVolume) / fwd.total / 1e9
			}
		}
	}

	// fft: one forward and one inverse packed transform at the transform
	// shape of the first class.
	cl := t.spec.classes[0]
	shape := conv.NewTransformer(cl.in, cl.k, tensor.Dense(), conv.FFT, false, nil).TransformShape()
	m["fft.ns_per_voxel.f64"] = 1e9 / float64(shape.Volume()) *
		timePlan3R[float64, complex128](rec, parent, "fft.ns_per_voxel.f64", shape, rng, n, minTime)

	// conv.autotune_regret: what the default tuner costs against the better
	// forced method, through znn.Config.Conv alone.
	var byMode [3]float64
	for i, mode := range []znn.ConvMode{znn.Autotune, znn.ForceDirect, znn.ForceFFT} {
		if mode == t.spec.mode {
			byMode[i] = midMean(t.lat) // the workload's own net, already timed
			continue
		}
		s, err := t.typicalUpdate(rec, parent, fmt.Sprintf("update.conv_mode_%d", mode), mode, workers, n)
		if err != nil {
			return nil, err
		}
		byMode[i] = s
	}
	m["conv.autotune_regret"] = byMode[0] / math.Min(byMode[1], byMode[2])

	// sched: the cost of an empty task, and the two-worker speed-up of this
	// workload's own update.
	m["sched.task_overhead_ns"] = 1e9 * taskOverhead(rec, parent, t.c.scaled(20000, 200))
	one, err := t.typicalUpdate(rec, parent, "update.workers1", t.spec.mode, 1, n)
	if err != nil {
		return nil, err
	}
	m["sched.speedup_2w"] = one / midMean(t.lat)

	// wsum: eight convergent contributions raced by two goroutines, at the
	// image and spectrum sizes the first class sums.
	outShape := cl.in.ValidConv(cl.k, tensor.Dense())
	m["wsum.add_ns_per_voxel.real"] = 1e9 / float64(8*outShape.Volume()) * sumReal(rec, parent, outShape, n, minTime)
	packed := fft.PackedVolume(shape)
	m["wsum.add_ns_per_voxel.complex"] = 1e9 / float64(8*packed) * sumComplex(rec, parent, packed, n, minTime)

	// train.fwd_share: how much of an update is the forward pass.
	in := t.samples[0].Input
	fwd := timeCalls(rec, parent, "znn.Infer", n, minTime, nil, func() {
		if _, e := t.nw.infer(in); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	m["train.fwd_share"] = fwd.median / midMean(t.lat)

	// data: one training sample at this net's shapes, so that a claim about
	// overlapping sample generation with training has its cost on record.
	p := data.NewBoundaryProvider(t.spec.in, t.spec.out, t.c.seed)
	m["data.sample_ms"] = 1e3 * timeCalls(rec, parent, "data.sample_ms", n, minTime, nil, func() { p.Next() }).median
	return m, nil
}

// timePlan3R returns the median seconds of a forward plus an inverse packed
// real transform of the given shape.
func timePlan3R[R tensor.Real, C fft.Complex](rec *recorder, parent int, name string, s znn.Shape, rng *rand.Rand, n int, minTime time.Duration) float64 {
	plan := fft.NewPlan3ROf[R, C](s)
	src := tensor.RandomUniformOf[R](rng, s, -1, 1)
	dst := tensor.NewOf[R](s)
	buf := make([]C, plan.PackedLen())
	return timeCalls(rec, parent, name, n, minTime, nil, func() {
		plan.Forward(buf, src)
		plan.Inverse(dst, buf, 0, 0, 0)
	}).median
}

// taskOverhead is the seconds one empty task costs to spawn, run and wait for.
func taskOverhead(rec *recorder, parent, tasks int) float64 {
	e := sched.New(workers, nil)
	defer e.Shutdown()
	return timeCalls(rec, parent, "sched.task_overhead_ns", 3, 0, nil, func() {
		for i := 0; i < tasks; i++ {
			e.Spawn(sched.Work, 0, func() {})
		}
		e.WaitWork()
	}).median / float64(tasks)
}

// race has two goroutines make four contributions each and returns when
// both are done.
func race(add func(i int)) {
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := 0; i < 4; i++ {
				add(4*g + i)
			}
			done <- struct{}{}
		}(g)
	}
	<-done
	<-done
}

func sumReal(rec *recorder, parent int, s znn.Shape, n int, minTime time.Duration) float64 {
	var parts [8]*tensor.Tensor
	return timeCalls(rec, parent, "wsum.add_ns_per_voxel.real", n, minTime, func() {
		for j := range parts {
			parts[j] = tensor.New(s)
			parts[j].Fill(1)
		}
	}, func() {
		sum := wsum.New(8)
		race(func(j int) { sum.Add(parts[j]) })
	}).median
}

func sumComplex(rec *recorder, parent int, coeffs, n int, minTime time.Duration) float64 {
	var parts [8]fft.Spectrum
	return timeCalls(rec, parent, "wsum.add_ns_per_voxel.complex", n, minTime, func() {
		for j := range parts {
			parts[j] = fft.Spec128(mempool.Spectra.Get(coeffs))
		}
	}, func() {
		sum := wsum.NewComplex(8)
		race(func(j int) { sum.Add(parts[j]) })
		sum.Value().Release()
	}).median
}

// ---- train_fft7 ----

const fft7Spec = "C7-Trelu-C7-Trelu-C7-Tlogistic"

func startTrainFFT7(c *runCtx) (instance, error) {
	width, out := c.scaled(8, 2), c.scaled(12, 2)
	in := out + 18 // three valid 7-wide convolutions
	return startTrain(c, trainSpec{
		in: znn.Cube(in), out: znn.Cube(out),
		mode: znn.ForceFFT,
		build: func(mode znn.ConvMode, nworkers int) (*trainNet, error) {
			nw, err := znn.NewNetwork(fft7Spec, znn.Config{
				Width: width, OutputPatch: out, Conv: mode, Memoize: true,
				Workers: nworkers, Seed: c.seed, Eta: trainEta,
			})
			if err != nil {
				return nil, err
			}
			return &trainNet{
				train: nw.Train,
				infer: func(in *znn.Tensor) ([]*znn.Tensor, error) { return nw.Infer(in) },
				close: nw.Close,
			}, nil
		},
		// The same spec, widths and seed through internal/net give the same
		// parameters; the reference convolves however its own tuner picks.
		reference: func() (*net.Network, error) {
			return net.Build(net.MustParse(fft7Spec), net.BuildOptions{Width: width, OutputExtent: out, Seed: c.seed})
		},
		// The middle layer's edges: eight in, eight out.
		classes: []convClass{{"k7", znn.Cube(in - 6), znn.Cube(7)}},
	})
}

// ---- train_aniso_auto ----

// The SNIPPETS.md exemplar net: anisotropic kernels on an anisotropic
// patch, every hidden layer eight wide, logistic throughout.
var anisoKernels = []znn.Shape{znn.S3(5, 5, 1), znn.S3(3, 3, 3), znn.S3(5, 5, 1), znn.S3(3, 3, 3)}

func startTrainAniso(c *runCtx) (instance, error) {
	in := znn.S3(49, 49, 15)
	if c.smoke {
		in = znn.S3(17, 17, 7)
	}
	w := c.scaled(8, 2)
	widths := []int{w, w, w, 1}
	shapes := []znn.Shape{in} // the image shape entering each layer, then the output
	for _, k := range anisoKernels {
		shapes = append(shapes, shapes[len(shapes)-1].ValidConv(k, tensor.Dense()))
	}
	return startTrain(c, trainSpec{
		in: in, out: shapes[len(shapes)-1],
		mode: znn.Autotune,
		build: func(mode znn.ConvMode, nworkers int) (*trainNet, error) {
			b := znn.NewGraphBuilder(znn.Config{Conv: mode, Workers: nworkers, Seed: c.seed, Eta: trainEta})
			cur := []znn.NodeRef{b.Input("in", in)}
			for l, k := range anisoKernels {
				next := make([]znn.NodeRef, widths[l])
				for j := range next {
					sum := b.Conv(fmt.Sprintf("L%d/conv/%d", l, j), k, znn.Dense(), cur...)
					next[j] = b.Transfer(fmt.Sprintf("L%d/t/%d", l, j), "logistic", sum)
				}
				cur = next
			}
			m, err := b.Build()
			if err != nil {
				return nil, err
			}
			return &trainNet{
				train: func(in, des *znn.Tensor) (float64, error) {
					return m.Train([]*znn.Tensor{in}, []*znn.Tensor{des})
				},
				infer: func(in *znn.Tensor) ([]*znn.Tensor, error) { return m.Infer(in) },
				close: m.Close,
			}, nil
		},
		// znn.Model exposes no parameters, so the reference rebuilds the
		// graph on internal/graph, drawing kernels from the same seed in the
		// order GraphBuilder draws them, and convolves directly.
		reference: func() (*net.Network, error) {
			logistic, err := ops.TransferByName("logistic")
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(c.seed))
			g := graph.New()
			input := g.AddNode("in", in)
			cur := []*graph.Node{input}
			for l, k := range anisoKernels {
				next := make([]*graph.Node, widths[l])
				for j := range next {
					sum := g.AddNode(fmt.Sprintf("L%d/conv/%d", l, j), shapes[l+1])
					for _, u := range cur {
						ker := graph.InitKernel(rng, k, len(cur))
						g.Connect(u, sum, graph.NewConvOp(u.Shape, ker, tensor.Dense(), conv.Direct, false, nil))
					}
					next[j] = g.AddNode(fmt.Sprintf("L%d/t/%d", l, j), shapes[l+1])
					g.Connect(sum, next[j], graph.NewTransferOp(logistic, 0))
				}
				cur = next
			}
			return &net.Network{G: g, Inputs: []*graph.Node{input}, Outputs: cur}, nil
		},
		// The second and third layers' edges: eight in, eight out.
		classes: []convClass{
			{"k3", shapes[1], anisoKernels[1]},
			{"k5x5x1", shapes[2], anisoKernels[2]},
		},
	})
}
