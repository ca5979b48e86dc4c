package ops

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"znn/internal/cpu"
	"znn/internal/tensor"
)

type forwardBody = func(dst, src []float64, bias float64)

type transferTwin struct {
	name       string
	body, twin forwardBody
}

// transferTwins pairs each installed Forward body with its Go loop. It reads
// the bodies at call time: init installs them after package variables.
func transferTwins() []transferTwin {
	return []transferTwin{{"logistic", logisticForward, logisticGo}, {"relu", reluForward, reluGo}}
}

func installed(body, twin forwardBody) bool {
	return reflect.ValueOf(body).Pointer() != reflect.ValueOf(twin).Pointer()
}

// checkTwin runs body and twin on src at the given dst and src offsets into
// guarded backing arrays and fails unless both write the same bits to dst
// and nothing outside it.
func checkTwin(t *testing.T, name string, body, twin forwardBody, src []float64, bias float64, dOff, sOff int) {
	t.Helper()
	const guard = 4
	sb := make([]float64, sOff+len(src)+guard)
	copy(sb[sOff:], src)
	var got, want []float64
	for _, f := range []struct {
		fn  forwardBody
		out *[]float64
	}{{body, &got}, {twin, &want}} {
		db := make([]float64, dOff+len(src)+guard)
		for i := range db {
			db[i] = -7.5
		}
		f.fn(db[dOff:dOff+len(src)], sb[sOff:sOff+len(src)], bias)
		*f.out = db
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			j := i - dOff
			x := math.NaN()
			if j >= 0 && j < len(src) {
				x = src[j]
			}
			t.Fatalf("%s: len %d, dst+%d, src+%d, bias %v: element %d (x = %v, bits %#x) is %v (%#x), Go twin gives %v (%#x)",
				name, len(src), dOff, sOff, bias, j, x, math.Float64bits(x),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTransferKernelsMatchGoTwin pins each installed Forward body — the
// AVX2 assembly of transfer_amd64.s — to its Go loop bit for bit: every
// length from 0 to 33 at src and dst offsets 0–3; NaN, ±Inf, ±0 and the
// edges of the vector range (±700 and one ulp past, 708.4, archExp's
// overflow threshold 709.78, −745.2) in every lane of a 4-block; 2^20
// random bit patterns and 2^18 values in ±720; at biases 0, −0, 0.7, −3
// and +Inf. A body that is not installed (no AVX2, purego, or for the
// logistic GODEBUG=cpu.fma=off) skips, or fails when ZNN_REQUIRE_AVX2 is
// set.
func TestTransferKernelsMatchGoTwin(t *testing.T) {
	for _, tw := range transferTwins() {
		t.Run(tw.name, func(t *testing.T) {
			if !installed(tw.body, tw.twin) {
				if os.Getenv("ZNN_REQUIRE_AVX2") != "" {
					t.Fatalf("ZNN_REQUIRE_AVX2 set but %s Forward is not on the AVX2 path (cpu: %+v)", tw.name, cpu.X86)
				}
				t.Skipf("%s Forward not vectorized on this build/host", tw.name)
			}
			checkTwinInputs(t, tw)
		})
	}
}

// checkTwinInputs runs checkTwin over every input set of the test above.
func checkTwinInputs(t *testing.T, tw transferTwin) {
	rng := rand.New(rand.NewSource(46))
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		700, -700, math.Nextafter(700, 800), math.Nextafter(-700, -800),
		708.4, -708.4, 709.78, -709.78, 7.09782712893384e+02, -745.2, 745.2, 5e-324, 1e-310}
	ordinary := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = (rng.Float64() - 0.5) * 80
		}
		return s
	}
	bits := make([]float64, 1<<20)
	for i := range bits {
		bits[i] = math.Float64frombits(rng.Uint64())
	}
	wide := make([]float64, 1<<18)
	for i := range wide {
		wide[i] = (rng.Float64() - 0.5) * 1440
	}
	for _, bias := range []float64{0, math.Copysign(0, -1), 0.7, -3, math.Inf(1)} {
		for n := 0; n <= 33; n++ {
			src := ordinary(n)
			for off := 0; off < 16; off++ {
				checkTwin(t, tw.name, tw.body, tw.twin, src, bias, off%4, off/4)
			}
		}
		for _, e := range edges {
			for lane := 0; lane < 4; lane++ {
				src := ordinary(12)
				src[4+lane] = e - bias // x + bias lands on e, or near it
				checkTwin(t, tw.name, tw.body, tw.twin, src, bias, 0, 0)
				src[4+lane] = e
				checkTwin(t, tw.name, tw.body, tw.twin, src, bias, 1, 3)
			}
		}
		checkTwin(t, tw.name, tw.body, tw.twin, bits, bias, 0, 0)
		checkTwin(t, tw.name, tw.body, tw.twin, wide, bias, 0, 0)
	}
	// In place, as a caller may run a transfer over its own input.
	src := ordinary(37)
	src[5], src[22] = 705, math.NaN()
	got, want := append([]float64(nil), src...), append([]float64(nil), src...)
	tw.body(got, got, 0.7)
	tw.twin(want, want, 0.7)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s in place: element %d is %v, Go twin gives %v", tw.name, i, got[i], want[i])
		}
	}
}

// BenchmarkTransferForward reports ns/voxel of each Forward body at the
// aniso net's largest transfer image (45×45×15) and at the first transfer
// image of the cube net's 58³ block (54³): "installed" is the body Forward
// runs on this build and host, "go" its Go loop. Pre-activations are
// uniform in ±4, half of them negative.
func BenchmarkTransferForward(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	for _, tw := range transferTwins() {
		for _, s := range []tensor.Shape{tensor.S3(45, 45, 15), tensor.Cube(54)} {
			src := tensor.RandomUniform(rng, s, -4, 4).Data
			dst := make([]float64, len(src))
			for _, v := range []struct {
				name string
				fn   forwardBody
			}{{"installed", tw.body}, {"go", tw.twin}} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", tw.name, s.X, s.Y, s.Z, v.name), func(b *testing.B) {
					for range b.N {
						v.fn(dst, src, 0.1)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/voxel")
				})
			}
		}
	}
}
