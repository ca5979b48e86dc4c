package wsum

import (
	"testing"

	"znn/internal/fft"
	"znn/internal/mempool"
	"znn/internal/tensor"
)

func TestSumPoolReuse(t *testing.T) {
	s := Get(2)
	a := tensor.New(tensor.Cube(2))
	b := tensor.New(tensor.Cube(2))
	a.Data[0], b.Data[0] = 1, 2
	if s.Add(a) {
		t.Fatal("first Add reported completion")
	}
	if !s.Add(b) {
		t.Fatal("second Add did not report completion")
	}
	if got := s.Value().Data[0]; got != 3 {
		t.Fatalf("sum = %v, want 3", got)
	}
	s.Release()

	// A recycled Sum must behave like a fresh one.
	s2 := Get(1)
	c := tensor.New(tensor.Cube(2))
	c.Data[0] = 7
	if !s2.Add(c) {
		t.Fatal("Add on recycled Sum did not complete")
	}
	if got := s2.Value().Data[0]; got != 7 {
		t.Fatalf("recycled sum = %v, want 7", got)
	}
	s2.Release()
}

// TestComplexSumValueConsumes checks the ownership contract that makes
// Release safe: Value hands the buffer out to the caller, so a
// subsequent Release returns nothing to the spectra pool.
func TestComplexSumValueConsumes(t *testing.T) {
	base := mempool.Spectra.Stats().Puts
	s := GetComplex(1)
	buf := fft.Spec128(mempool.Spectra.Get(8))
	if !s.Add(buf) {
		t.Fatal("Add did not complete")
	}
	v := s.Value()
	s.Release() // must NOT release v's buffer
	if got := mempool.Spectra.Stats().Puts - base; got != 0 {
		t.Fatalf("Release after Value returned %d buffers to the pool, want 0", got)
	}
	v.Release()
	if got := mempool.Spectra.Stats().Puts - base; got != 1 {
		t.Fatalf("caller release returned %d buffers, want 1", got)
	}
}

// TestComplexSumReleaseAbandoned checks that a sum abandoned before
// completion returns its parked partial buffer to the pool.
func TestComplexSumReleaseAbandoned(t *testing.T) {
	base := mempool.Spectra.Stats().Puts
	s := GetComplex(2)
	s.Add(fft.Spec128(mempool.Spectra.Get(8)))
	s.Release()
	if got := mempool.Spectra.Stats().Puts - base; got != 1 {
		t.Fatalf("abandoned Release returned %d buffers, want 1", got)
	}
}
