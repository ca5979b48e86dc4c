package znn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"znn/internal/chaos"
	"znn/internal/tensor"
)

func testNet(t *testing.T, seed int64) *Network {
	t.Helper()
	n, err := NewNetwork("C3-Trelu-C1", Config{
		Width: 2, OutputPatch: 4, Workers: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func sameParams(t *testing.T, a, b *Network) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("param %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

// TestSaveFileRoundtrip covers the crash-safe writer end to end: SaveFile
// then LoadFile restores bit-identical parameters, and no temp litter
// remains next to the target.
func TestSaveFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.znn")
	n := testNet(t, 7)
	if err := n.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	sameParams(t, n, restored)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "model.znn" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir holds %v, want only model.znn", names)
	}
}

// TestLoadLegacyHeaderlessCheckpoint proves v1 (bare gob) checkpoints
// written before the versioned header still load.
func TestLoadLegacyHeaderlessCheckpoint(t *testing.T) {
	n := testNet(t, 11)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(checkpoint{
		Format: checkpointFormatLegacy,
		Spec:   n.Spec(),
		Config: n.cfg,
		Params: n.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, 1)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	defer restored.Close()
	sameParams(t, n, restored)
}

// TestLoadCheckpointWithRemovedPolicyField proves checkpoints whose Config
// still carries the removed scheduler-policy field keep loading in both
// formats: gob drops fields the destination struct does not have.
func TestLoadCheckpointWithRemovedPolicyField(t *testing.T) {
	// oldConfig is Config as those checkpoints encode it.
	type oldConfig struct {
		Width         int
		OutWidth      int
		InWidth       int
		Dims          int
		OutputPatch   int
		InputPatch    int
		Workers       int
		Policy        string
		Conv          ConvMode
		Memoize       bool
		Loss          string
		Eta           float64
		Momentum      float64
		Seed          int64
		SlidingWindow bool
		Float32       bool
		Planned       bool
		MemBudget     int64
		PlanMaxK      int
	}
	type oldCheckpoint struct {
		Format int
		Spec   string
		Config oldConfig
		Params []float64
	}
	n := testNet(t, 37)
	c := n.cfg
	cfg := oldConfig{
		Width: c.Width, OutWidth: c.OutWidth, InWidth: c.InWidth, Dims: c.Dims,
		OutputPatch: c.OutputPatch, InputPatch: c.InputPatch, Workers: c.Workers,
		Policy: "fifo", Conv: c.Conv, Memoize: c.Memoize, Loss: c.Loss,
		Eta: c.Eta, Momentum: c.Momentum, Seed: c.Seed, SlidingWindow: c.SlidingWindow,
		Float32: c.Float32, Planned: c.Planned, MemBudget: c.MemBudget, PlanMaxK: c.PlanMaxK,
	}
	in := tensor.RandomUniform(rand.New(rand.NewSource(38)), n.InputShape(), -1, 1)
	want, err := n.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(format int) []byte {
		var buf bytes.Buffer
		cp := oldCheckpoint{Format: format, Spec: n.Spec(), Config: cfg, Params: n.Params()}
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var v2 bytes.Buffer
	if err := writeCheckpoint(&v2, encode(checkpointFormat)); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{
		"v1": encode(checkpointFormatLegacy),
		"v2": v2.Bytes(),
	} {
		restored, err := Load(bytes.NewReader(file), 1)
		if err != nil {
			t.Fatalf("%s: checkpoint with Policy rejected: %v", name, err)
		}
		got, err := restored.Infer(in)
		restored.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Equal(want[0]) {
			t.Errorf("%s: restored inference differs by %g", name, got[0].MaxAbsDiff(want[0]))
		}
	}
}

// TestLoadTypedErrors exercises every typed failure class.
func TestLoadTypedErrors(t *testing.T) {
	n := testNet(t, 13)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("corrupt payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-3] ^= 0xff
		if _, err := Load(bytes.NewReader(bad), 1); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(good[:len(good)-7]), 1); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(good[:10]), 1); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
		}
	})
	t.Run("future format version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 99 // version field
		if _, err := Load(bytes.NewReader(bad), 1); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("geometry mismatch", func(t *testing.T) {
		cp := checkpoint{Format: checkpointFormat, Spec: n.Spec(), Config: n.cfg,
			Params: n.Params()[:n.NumParams()-1]}
		var pl bytes.Buffer
		if err := gob.NewEncoder(&pl).Encode(cp); err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := writeCheckpoint(&w, pl.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&w, 1); !errors.Is(err, ErrCheckpointGeometry) {
			t.Fatalf("err = %v, want ErrCheckpointGeometry", err)
		}
	})
	t.Run("spec mismatch", func(t *testing.T) {
		cp := checkpoint{Format: checkpointFormat, Spec: "C3-Tnosuch", Config: n.cfg,
			Params: n.Params()}
		var pl bytes.Buffer
		if err := gob.NewEncoder(&pl).Encode(cp); err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := writeCheckpoint(&w, pl.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&w, 1); !errors.Is(err, ErrCheckpointSpec) {
			t.Fatalf("err = %v, want ErrCheckpointSpec", err)
		}
	})
}

// TestSaveFileCrashLeavesOldCheckpointLoadable is the crash-safety
// acceptance test: with faults injected at every stage of SaveFile — torn
// payload write, failed fsync, crash before rename — the previous
// checkpoint at the target path stays fully loadable, and a fault-free
// retry replaces it atomically.
func TestSaveFileCrashLeavesOldCheckpointLoadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.znn")
	old := testNet(t, 17)
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	next := testNet(t, 23)

	for _, point := range []string{"checkpoint.write", "checkpoint.sync", "checkpoint.rename"} {
		t.Run(point, func(t *testing.T) {
			chaos.Set(point, chaos.Fault{Err: errors.New("injected crash")})
			defer chaos.ClearAll()
			if err := next.SaveFile(path); err == nil {
				t.Fatalf("SaveFile survived an injected fault at %s", point)
			}
			restored, err := LoadFile(path, 1)
			if err != nil {
				t.Fatalf("old checkpoint unloadable after failed save at %s: %v", point, err)
			}
			restored.Close()
			sameParams(t, old, restored)
		})
	}

	// A torn file at the target itself (what a crash under the legacy
	// direct-write saver could leave) must be detected, not decoded.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "torn.znn")
	if err := os.WriteFile(tornPath, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(tornPath, 1); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("torn checkpoint file: err = %v, want ErrCheckpointCorrupt", err)
	}

	// And with chaos disarmed the save completes and swaps atomically.
	if err := next.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	sameParams(t, next, restored)
}

// TestServingCompatible covers the reload gate's typed errors.
func TestServingCompatible(t *testing.T) {
	a := testNet(t, 29)
	b := testNet(t, 31)
	if err := a.ServingCompatible(b); err != nil {
		t.Fatalf("identical geometry rejected: %v", err)
	}
	widER, err := NewNetwork("C3-Trelu-C1", Config{Width: 2, OutputPatch: 6, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer widER.Close()
	if err := a.ServingCompatible(widER); !errors.Is(err, ErrCheckpointGeometry) {
		t.Fatalf("geometry drift: err = %v, want ErrCheckpointGeometry", err)
	}
	f32, err := NewNetwork("C3-Trelu-C1", Config{Width: 2, OutputPatch: 4, Workers: 1, Seed: 1, Float32: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f32.Close()
	if err := a.ServingCompatible(f32); !errors.Is(err, ErrCheckpointPrecision) {
		t.Fatalf("precision drift: err = %v, want ErrCheckpointPrecision", err)
	}
}
