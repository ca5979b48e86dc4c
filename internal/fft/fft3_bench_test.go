package fft

import (
	"math/rand"
	"testing"

	"znn/internal/tensor"
)

// BenchmarkFFT3 vs BenchmarkFFT3R is the packed-pipeline A/B: one full
// load→forward→inverse→store cycle of a real volume at a representative
// transform shape (30³ is GoodShape of a 24³ image convolved with a 5³
// kernel), through the full complex reference plan and through the packed
// r2c/c2r plan, which computes and stores only the (X/2+1)·Y·Z
// Hermitian-packed coefficients.

func BenchmarkFFT3(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	img := tensor.RandomUniform(rng, tensor.Cube(30), -1, 1)
	m := img.S
	p := NewPlan3(m)
	buf := make([]complex128, m.Volume())
	out := tensor.New(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LoadReal(buf, m, img)
		p.Forward(buf)
		p.Inverse(buf)
		StoreReal(out, buf, m, 0, 0, 0)
	}
}

func BenchmarkFFT3R(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	img := tensor.RandomUniform(rng, tensor.Cube(30), -1, 1)
	p := NewPlan3R(img.S)
	buf := make([]complex128, p.PackedLen())
	out := tensor.New(img.S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(buf, img)
		p.Inverse(out, buf, 0, 0, 0)
	}
}
