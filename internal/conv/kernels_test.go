package conv

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"znn/internal/cpu"
	"znn/internal/tensor"
)

// useKernels installs a primitive pair for the rest of the test or
// benchmark and restores the dispatched pair afterwards.
func useKernels(tb testing.TB, g func(dst []float64, srcs [][]float64, ws []float64), d func(dst, a, b []float64, offs []int)) {
	sg, sd := gather, dotTaps
	gather, dotTaps = g, d
	tb.Cleanup(func() { gather, dotTaps = sg, sd })
}

// vectorized reports whether init installed the assembly primitives: the
// multi-source gather and the tap dot products both.
func vectorized() bool {
	return reflect.ValueOf(gather).Pointer() != reflect.ValueOf(gatherGo).Pointer() &&
		reflect.ValueOf(dotTaps).Pointer() != reflect.ValueOf(dotGo).Pointer()
}

// runs cuts each tap's run of n voxels out of src at its offset.
func runs(src []float64, offs []int, n int) [][]float64 {
	out := make([][]float64, len(offs))
	for t, off := range offs {
		out[t] = src[off:][:n]
	}
	return out
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestDirectKernelsMatchGoTwin: the installed primitives (the assembly on
// AVX2+FMA hosts) produce the Go twins' bits for every run length 1..67 —
// each residue mod 4, 16 and 32 — at tap counts 0, 1, 25, 27 and 343, on
// 5×5×1, 3×3×3 and 1×1×k kernels at dilation 1 and 2.
func TestDirectKernelsMatchGoTwin(t *testing.T) {
	if !vectorized() {
		t.Skip("direct kernels not vectorized on this build/host: nothing to differentiate")
	}
	rng := rand.New(rand.NewSource(81))
	kernels := []*tensor.Tensor{
		tensor.New(tensor.Cube(3)), // 0 taps
		tensor.RandomUniform(rng, tensor.Cube(1), -1, 1),
		tensor.RandomUniform(rng, tensor.S3(5, 5, 1), -1, 1),
		tensor.RandomUniform(rng, tensor.Cube(3), -1, 1),
		tensor.RandomUniform(rng, tensor.Cube(7), -1, 1),
		tensor.RandomUniform(rng, tensor.S3(1, 1, 5), -1, 1),
	}
	for _, ker := range kernels {
		for _, sp := range []tensor.Sparsity{tensor.Dense(), tensor.Uniform(2)} {
			tl := NewTapList(ker)
			for n := 1; n <= 67; n++ {
				// One run of n voxels: the source holds the dilated window.
				src := tensor.RandomUniform(rng, tensor.S3(n, 1, 1).FullConv(ker.S, sp), -1, 1)
				offs := tl.bind(src.S, sp)
				want, got := make([]float64, n), make([]float64, n)
				gatherGo(want, runs(src.Data, offs, n), tl.w)
				gather(got, runs(src.Data, offs, n), tl.w)
				if i := sameBits(want, got); i >= 0 {
					t.Fatalf("gather k%v sp%v taps %d n %d: voxel %d = %v, twin %v", ker.S, sp, tl.Len(), n, i, got[i], want[i])
				}
				a := tensor.RandomUniform(rng, tensor.S3(n, 1, 1), -1, 1).Data
				wantD, gotD := make([]float64, len(offs)), make([]float64, len(offs))
				dotGo(wantD, a, src.Data, offs)
				dotTaps(gotD, a, src.Data, offs)
				if i := sameBits(wantD, gotD); i >= 0 {
					t.Fatalf("dot k%v sp%v taps %d n %d: tap %d = %v, twin %v", ker.S, sp, tl.Len(), n, i, gotD[i], wantD[i])
				}
			}
		}
	}
}

// TestMultiSourceGatherMatchesGoTwin: the installed multi-source gather (one
// FMA chain across taps that each read their own image, as a node-level sum
// runs) produces the Go twin's bits for 1–300 taps over runs of 32–2000
// voxels, ragged ends included, with every tap reading a source of its own
// length at its own offset.
func TestMultiSourceGatherMatchesGoTwin(t *testing.T) {
	if !vectorized() {
		t.Skip("direct kernels not vectorized on this build/host: nothing to differentiate")
	}
	rng := rand.New(rand.NewSource(84))
	for _, taps := range []int{1, 2, 7, 27, 54, 216, 300} {
		for _, n := range []int{32, 33, 63, 64, 65, 95, 257, 1000, 1937, 2000} {
			srcs, ws := make([][]float64, taps), make([]float64, taps)
			for i := range srcs {
				src := tensor.RandomUniform(rng, tensor.S3(n+rng.Intn(200), 1, 1), -1, 1).Data
				srcs[i] = src[rng.Intn(len(src)-n+1):][:n]
				ws[i] = rng.Float64()*2 - 1
			}
			want, got := make([]float64, n), make([]float64, n)
			gatherGo(want, srcs, ws)
			gather(got, srcs, ws)
			if i := sameBits(want, got); i >= 0 {
				t.Fatalf("taps %d n %d: voxel %d = %v, twin %v", taps, n, i, got[i], want[i])
			}
		}
	}
}

// TestDirectDispatchAVX2 is CI's proof that the direct kernels run the
// assembly: with ZNN_REQUIRE_AVX2=1 it fails (rather than skips) when the
// AVX2 path is not installed, then checks one exemplar-shaped edge against
// the naive reference.
func TestDirectDispatchAVX2(t *testing.T) {
	if !vectorized() {
		if os.Getenv("ZNN_REQUIRE_AVX2") != "" {
			t.Fatalf("ZNN_REQUIRE_AVX2 set but the direct kernels are not on the AVX2 path (cpu: %+v)", cpu.X86)
		}
		t.Skip("direct kernels not vectorized on this build/host")
	}
	rng := rand.New(rand.NewSource(82))
	img := tensor.RandomUniform(rng, tensor.S3(21, 19, 5), -1, 1)
	ker := tensor.RandomUniform(rng, tensor.S3(5, 5, 1), -1, 1)
	if d := ValidDirect(img, ker, tensor.Dense()).MaxAbsDiff(NaiveValid(img, ker, tensor.Dense())); d > tol {
		t.Fatalf("AVX2 forward differs from naive by %g", d)
	}
	// A node-level sum of two such edges.
	img2 := tensor.RandomUniform(rng, img.S, -1, 1)
	tr := NewTransformer(img.S, ker.S, tensor.Dense(), Direct, false, nil)
	got := tensor.New(tr.OutShape())
	SumForward(got, 0, got.S.Z, []Term{{tr, img, ker}, {tr, img2, ker.Reflect()}})
	want := NaiveValid(img, ker, tensor.Dense())
	want.Add(NaiveValid(img2, ker.Reflect(), tensor.Dense()))
	if d := got.MaxAbsDiff(want); d > tol {
		t.Fatalf("AVX2 two-edge sum differs from naive by %g", d)
	}
}

// TestDirectGradientsNumerical checks the direct Backward and KernelGrad
// against central differences of L = ½‖Forward(img, ker) − target‖² on the
// exemplar kernels at dilation 1 and 2 (ROADMAP 7(b), direct edge kind).
func TestDirectGradientsNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, c := range []struct{ in, k tensor.Shape }{
		{tensor.S3(13, 11, 3), tensor.S3(5, 5, 1)},
		{tensor.S3(10, 9, 7), tensor.Cube(3)},
	} {
		for _, sp := range []tensor.Sparsity{tensor.Dense(), tensor.Uniform(2)} {
			img := tensor.RandomUniform(rng, c.in, -1, 1)
			ker := tensor.RandomUniform(rng, c.k, -1, 1)
			tr := NewTransformer(c.in, c.k, sp, Direct, false, nil)
			target := tensor.RandomUniform(rng, tr.OutShape(), -1, 1)
			loss := func() float64 {
				var l float64
				for i, v := range tr.Forward(img, ker, nil).Data {
					l += (v - target.Data[i]) * (v - target.Data[i]) / 2
				}
				return l
			}
			u := tr.Forward(img, ker, nil)
			u.Axpy(-1, target) // dL/dout
			for _, v := range []struct {
				name string
				x    *tensor.Tensor
				grad *tensor.Tensor
			}{
				{"backward", img, tr.Backward(u, ker, nil)},
				{"kernel grad", ker, tr.KernelGrad(img, u)},
			} {
				const h = 1e-4
				var maxErr, maxGrad float64
				for i := range v.x.Data {
					x0 := v.x.Data[i]
					v.x.Data[i] = x0 + h
					lp := loss()
					v.x.Data[i] = x0 - h
					lm := loss()
					v.x.Data[i] = x0
					maxErr = math.Max(maxErr, math.Abs((lp-lm)/(2*h)-v.grad.Data[i]))
					maxGrad = math.Max(maxGrad, math.Abs(v.grad.Data[i]))
				}
				if rel := maxErr / maxGrad; rel > 1e-6 {
					t.Errorf("k%v sp%v %s: relative error %g vs central differences", c.k, sp, v.name, rel)
				}
			}
		}
	}
}

// Per-phase direct microbenchmarks at the exemplar edge shapes and
// train_fft7's k7 class, each a dispatched-vs-Go-twin pair (the ratio is
// the vector kernels' speedup on this host). ns/voxel is per input voxel,
// the unit of the benchmark's conv.*_ns_per_voxel rows.
var directBenchClasses = []struct {
	name  string
	in, k tensor.Shape
}{
	{"k5x5x1", tensor.S3(45, 45, 15), tensor.S3(5, 5, 1)},
	{"k3", tensor.S3(43, 43, 13), tensor.Cube(3)},
	{"k7", tensor.Cube(24), tensor.Cube(7)},
}

func benchDirect(b *testing.B, phase func(tr *Transformer, img, ker, bwd *tensor.Tensor)) {
	for _, c := range directBenchClasses {
		rng := rand.New(rand.NewSource(85))
		tr := NewTransformer(c.in, c.k, tensor.Dense(), Direct, false, nil)
		img := tensor.RandomUniform(rng, c.in, -1, 1)
		ker := tensor.RandomUniform(rng, c.k, -1, 1)
		bwd := tensor.RandomUniform(rng, tr.OutShape(), -1, 1)
		for _, v := range []struct {
			name string
			g    func(dst []float64, srcs [][]float64, ws []float64)
			d    func(dst, a, b []float64, offs []int)
		}{{"dispatched", gather, dotTaps}, {"scalar", gatherGo, dotGo}} {
			b.Run(c.name+"/"+v.name, func(b *testing.B) {
				useKernels(b, v.g, v.d)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					phase(tr, img, ker, bwd)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.in.Volume()), "ns/voxel")
			})
		}
	}
}

func BenchmarkDirectForward(b *testing.B) {
	benchDirect(b, func(tr *Transformer, img, ker, _ *tensor.Tensor) { tr.Forward(img, ker, nil) })
}

func BenchmarkDirectBackward(b *testing.B) {
	benchDirect(b, func(tr *Transformer, _, ker, bwd *tensor.Tensor) { tr.Backward(bwd, ker, nil) })
}

func BenchmarkDirectKernelGrad(b *testing.B) {
	benchDirect(b, func(tr *Transformer, img, _, bwd *tensor.Tensor) { tr.KernelGrad(img, bwd) })
}

// requireVector skips a parity test where the assembly is not installed,
// or fails it when ZNN_REQUIRE_AVX2 is set (CI's dispatch step).
func requireVector(t *testing.T) {
	t.Helper()
	if vectorized() {
		return
	}
	if os.Getenv("ZNN_REQUIRE_AVX2") != "" {
		t.Fatalf("ZNN_REQUIRE_AVX2 set but the direct kernels are not on the AVX2 path (cpu: %+v)", cpu.X86)
	}
	t.Skip("direct kernels not vectorized on this build/host: nothing to differentiate")
}

// TestPairedGatherMatchesGoTwin: the installed gather of B = 1 and B = 2
// outputs produces the Go twin's bits over runs of 16, 17, 31 and 1933
// voxels — the two-output body's single block, ragged final blocks that
// overlap their predecessor, the exemplar 3³ plane — at 1, 25, 27 and 8×27
// taps; and each output of the B = 2 twin is the B = 1 twin over that
// output's weights.
func TestPairedGatherMatchesGoTwin(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(86))
	for _, taps := range []int{1, 25, 27, 8 * 27} {
		for _, n := range []int{16, 17, 31, 1933} {
			srcs, w := make([][]float64, taps), [2][]float64{make([]float64, taps), make([]float64, taps)}
			var pair []float64
			for j := range srcs {
				src := tensor.RandomUniform(rng, tensor.S3(n+rng.Intn(60), 1, 1), -1, 1).Data
				srcs[j] = src[rng.Intn(len(src)-n+1):][:n]
				w[0][j], w[1][j] = rng.Float64()*2-1, rng.Float64()*2-1
				pair = append(pair, w[0][j], w[1][j])
			}
			for _, ws := range [][]float64{w[0], pair} {
				nb := len(ws) / taps
				want, got := make([]float64, nb*n), make([]float64, nb*n)
				gatherGo(want, srcs, ws)
				gather(got, srcs, ws)
				if i := sameBits(want, got); i >= 0 {
					t.Fatalf("B=%d taps %d n %d: voxel %d = %v, twin %v", nb, taps, n, i, got[i], want[i])
				}
				for b := 0; b < nb && nb > 1; b++ {
					one := make([]float64, n)
					gatherGo(one, srcs, w[b])
					if i := sameBits(one, want[b*n:]); i >= 0 {
						t.Fatalf("B=2 taps %d n %d: output %d voxel %d = %v, single-output twin %v", taps, n, b, i, want[b*n+i], one[i])
					}
				}
			}
		}
	}
}

// TestSumNodesPairMatchesSingle: SumNodes over two sibling nodes that read
// the same three images gives each node the bits SumForward (and, over
// padded images with reflected taps, SumBackward) gives it alone — through
// the paired gather when the kernels' zero patterns match, and through one
// single-node gather per node when the nodes' zero taps sit at different
// positions — for whole and partial plane ranges, leaving the other planes
// untouched.
func TestSumNodesPairMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for _, k := range []tensor.Shape{tensor.Cube(3), tensor.S3(5, 5, 1)} {
		for _, sparse := range []bool{false, true} {
			for _, bwd := range []bool{false, true} {
				tr := NewTransformer(tensor.S3(21, 19, 7), k, tensor.Dense(), Direct, false, nil)
				var terms [2][]Term
				for range 3 {
					img := tensor.RandomUniform(rng, tr.InShape(), -1, 1)
					if bwd {
						var pc PadCache
						pc.Reset(tensor.RandomUniform(rng, tr.OutShape(), -1, 1))
						img = pc.Get(tr.Halo())
					}
					for b := range terms {
						terms[b] = append(terms[b], Term{Tr: tr, Img: img, Ker: tensor.RandomUniform(rng, k, -1, 1)})
					}
				}
				if sparse { // as many taps, at other positions
					terms[0][1].Ker.Data[5] = 0
					terms[1][1].Ker.Data[4] = 0
				}
				os := tr.OutShape()
				if bwd {
					os = tr.InShape()
				}
				for _, zs := range [][2]int{{0, os.Z}, {1, 3}} {
					outs := []*tensor.Tensor{tensor.New(os), tensor.New(os)}
					SumNodes(outs, zs[0], zs[1], terms[:], bwd)
					for b, got := range outs {
						want := tensor.New(os)
						if bwd {
							SumBackward(want, zs[0], zs[1], terms[b])
						} else {
							SumForward(want, zs[0], zs[1], terms[b])
						}
						if i := sameBits(want.Data, got.Data); i >= 0 {
							t.Fatalf("k%v sparse %v bwd %v planes %v: node %d voxel %d = %v, single-node sum %v",
								k, sparse, bwd, zs, b, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestTapBlockedDotMatchesTwin: the installed tap dot, which runs taps in
// blocks of three with a final block of one or two, produces dotGo's bits
// at 1, 2, 3, 25 and 27 taps over runs with and without a tail, every tap
// at a random offset.
func TestTapBlockedDotMatchesTwin(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(88))
	for _, taps := range []int{1, 2, 3, 25, 27} {
		for _, n := range []int{16, 47, 1933, 2201} {
			a := tensor.RandomUniform(rng, tensor.S3(n, 1, 1), -1, 1).Data
			b := tensor.RandomUniform(rng, tensor.S3(n+200, 1, 1), -1, 1).Data
			offs := make([]int, taps)
			for j := range offs {
				offs[j] = rng.Intn(201)
			}
			want, got := make([]float64, taps), make([]float64, taps)
			dotGo(want, a, b, offs)
			dotTaps(got, a, b, offs)
			if i := sameBits(want, got); i >= 0 {
				t.Fatalf("taps %d n %d: tap %d = %v, twin %v", taps, n, i, got[i], want[i])
			}
		}
	}
}

// TestKernelGradPaddedOperand: KernelGradDirect over the backward image
// padded by the edge's halo (PadCache.Get, the operand the engine's updates
// pass) gives the bits it gives over the image itself — dense and sparse,
// with halos along every axis, along y and z only, and none.
func TestKernelGradPaddedOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for _, c := range []struct {
		in, k tensor.Shape
		sp    tensor.Sparsity
	}{
		{tensor.S3(45, 45, 15), tensor.S3(5, 5, 1), tensor.Dense()},
		{tensor.S3(43, 43, 13), tensor.Cube(3), tensor.Dense()},
		{tensor.S3(15, 12, 11), tensor.S3(3, 2, 3), tensor.Sparsity{X: 2, Y: 1, Z: 3}},
		{tensor.S3(9, 12, 11), tensor.S3(1, 3, 2), tensor.Dense()},
		{tensor.Cube(6), tensor.Cube(1), tensor.Dense()},
	} {
		img := tensor.RandomUniform(rng, c.in, -1, 1)
		bwd := tensor.RandomUniform(rng, c.in.ValidConv(c.k, c.sp), -1, 1)
		var pc PadCache
		pc.Reset(bwd)
		want := KernelGradDirect(img, bwd, c.k, c.sp)
		got := KernelGradDirect(img, pc.Get(c.in.Sub(bwd.S)), c.k, c.sp)
		if i := sameBits(want.Data, got.Data); i >= 0 {
			t.Errorf("image %v kernel %v sparsity %v: tap %d = %v over the padded image, %v over the image", c.in, c.k, c.sp, i, got.Data[i], want.Data[i])
		}
		pc.Release()
	}
}
