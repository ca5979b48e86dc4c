package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"znn/internal/tensor"
	"znn/internal/tile"
)

// TestCheckInput: the input-file guard passes a file that holds the
// volume, refuses a short one, and refuses -vol shapes whose byte size
// wraps int64 (2097152³ at f64 computed to 0 bytes, 3000000³ to a
// negative count, so every file used to pass) with an error saying so.
func TestCheckInput(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "in.raw"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 4*4*4*8)); err != nil {
		t.Fatal(err)
	}
	if err := checkInput(f, tensor.Cube(4), tile.F64); err != nil {
		t.Errorf("4³ f64 in a 512-byte file: %v", err)
	}
	if err := checkInput(f, tensor.Cube(5), tile.F64); err == nil || !strings.Contains(err.Error(), "needs 1000") {
		t.Errorf("5³ f64 in a 512-byte file: err %v, want it to say the file is short", err)
	}
	for _, n := range []int{2097152, 3000000} {
		if err := checkInput(f, tensor.Cube(n), tile.F64); err == nil || !strings.Contains(err.Error(), "over") {
			t.Errorf("-vol %d f64: err %v, want an overflow error", n, err)
		}
	}
}
