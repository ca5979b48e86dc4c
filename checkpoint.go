package znn

// Checkpoint format (version 2, "crash-safe"):
//
//	offset  size  field
//	0       8     magic "ZNNCKPT\x02"
//	8       4     format version, uint32 little-endian (currently 2)
//	12      8     payload length in bytes, uint64 little-endian
//	20      4     CRC32 (IEEE) of the payload, uint32 little-endian
//	24      n     payload: gob-encoded checkpoint{Spec, Config, Params}
//
// The header makes torn files detectable: a reader that finds the magic
// but a short or checksum-mismatched payload reports ErrCheckpointCorrupt
// instead of feeding garbage into gob. Files written by the version-1
// (headerless, bare gob) format are still accepted — the magic cannot
// collide with a gob stream's leading type descriptor — so old
// checkpoints keep loading without migration.
//
// SaveFile is the crash-safe writer: it encodes into a temp file in the
// target directory, fsyncs it, and atomically renames it over the target
// (then fsyncs the directory), so a crash at ANY point leaves either the
// complete old file or the complete new file, never a torn mixture. Save
// writes the same format to any io.Writer for callers that own their
// durability story.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"znn/internal/chaos"
)

// Typed checkpoint error classes. Load (and the serving reload gate) wrap
// these with context, so callers branch with errors.Is and print targeted
// remediation instead of pattern-matching strings.
var (
	// ErrCheckpointCorrupt: the file is torn or bit-rotted — short
	// payload, CRC mismatch, or undecodable v2 payload. Remediation:
	// restore from the previous checkpoint (SaveFile never tears the
	// target, so a torn file means a legacy direct write or disk fault).
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointFormat: the format version is newer than this binary
	// understands. Remediation: upgrade the binary.
	ErrCheckpointFormat = errors.New("unsupported checkpoint format")
	// ErrCheckpointSpec: the stored layer spec does not parse or build in
	// this binary (renamed ops, removed layer kinds).
	ErrCheckpointSpec = errors.New("checkpoint spec mismatch")
	// ErrCheckpointGeometry: the stored parameters do not fit the network
	// the spec+config rebuild (width/patch/dims drift).
	ErrCheckpointGeometry = errors.New("checkpoint geometry mismatch")
	// ErrCheckpointPrecision: the checkpoint's spectral precision differs
	// where the caller requires it to match (hot reload keeps the serving
	// pipeline's precision stable across generations).
	ErrCheckpointPrecision = errors.New("checkpoint precision mismatch")
)

// checkpoint is the gob payload: enough to rebuild the network and
// restore its parameters.
type checkpoint struct {
	Format int
	Spec   string
	Config Config
	Params []float64
}

const (
	checkpointFormatLegacy = 1 // bare gob stream, no header
	checkpointFormat       = 2 // magic + version + length + CRC32 header
)

var checkpointMagic = [8]byte{'Z', 'N', 'N', 'C', 'K', 'P', 'T', 2}

// encodePayload gobs the network state into the v2 payload bytes.
func (n *Network) encodePayload() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(checkpoint{
		Format: checkpointFormat,
		Spec:   n.spec.String(),
		Config: n.cfg,
		Params: n.nw.Params(),
	})
	if err != nil {
		return nil, fmt.Errorf("znn: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// writeCheckpoint emits the v2 header + payload. The payload is written in
// two halves around the "checkpoint.write" chaos point so fault-injection
// tests can tear the stream mid-payload, exactly like a crash would.
func writeCheckpoint(w io.Writer, payload []byte) error {
	var hdr [24]byte
	copy(hdr[:8], checkpointMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], checkpointFormat)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	half := len(payload) / 2
	if _, err := w.Write(payload[:half]); err != nil {
		return err
	}
	if err := chaos.Inject("checkpoint.write"); err != nil {
		return err
	}
	_, err := w.Write(payload[half:])
	return err
}

// Save serializes the network spec, configuration and parameters in the
// versioned, checksummed v2 format. The scheduler state is not part of a
// checkpoint (pending updates should be drained by pausing training before
// saving). Save gives no atomicity: a crash mid-write leaves a torn stream
// (which Load will at least detect via the checksum). Use SaveFile for the
// crash-safe temp-file + fsync + rename path.
func (n *Network) Save(w io.Writer) error {
	payload, err := n.encodePayload()
	if err != nil {
		return err
	}
	if err := writeCheckpoint(w, payload); err != nil {
		return fmt.Errorf("znn: writing checkpoint: %w", err)
	}
	return nil
}

// SaveFile writes the checkpoint crash-safely: encode into a temp file in
// path's directory, fsync, then atomically rename over path and fsync the
// directory. A crash (or injected fault) at any point leaves path either
// untouched or fully replaced — never torn — so a serving fleet can always
// load the last completed checkpoint.
func (n *Network) SaveFile(path string) (err error) {
	payload, encErr := n.encodePayload()
	if encErr != nil {
		return encErr
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("znn: creating checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = writeCheckpoint(tmp, payload); err != nil {
		return fmt.Errorf("znn: writing checkpoint %s: %w", tmpName, err)
	}
	if err = chaos.Inject("checkpoint.sync"); err != nil {
		return fmt.Errorf("znn: syncing checkpoint %s: %w", tmpName, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("znn: syncing checkpoint %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("znn: closing checkpoint %s: %w", tmpName, err)
	}
	if err = chaos.Inject("checkpoint.rename"); err != nil {
		return fmt.Errorf("znn: renaming checkpoint into place: %w", err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("znn: renaming checkpoint into place: %w", err)
	}
	// Make the rename itself durable: fsync the directory entry. Failure
	// here is reported but the file content is already consistent.
	if d, derr := os.Open(dir); derr == nil {
		derr = d.Sync()
		d.Close()
		if derr != nil {
			return fmt.Errorf("znn: syncing checkpoint directory %s: %w", dir, derr)
		}
	}
	return nil
}

// Load rebuilds a network from a checkpoint written by Save or SaveFile,
// accepting both the v2 (header + CRC32) and the legacy headerless gob
// format. workers, when > 0, overrides the stored worker count
// (checkpoints move between machines with different core counts).
//
// Failures wrap the typed error classes: ErrCheckpointCorrupt (torn or
// checksum-mismatched file), ErrCheckpointFormat (version from a newer
// binary), ErrCheckpointSpec (spec no longer builds) and
// ErrCheckpointGeometry (parameters do not fit the rebuilt network), so
// callers branch with errors.Is.
func Load(r io.Reader, workers int) (*Network, error) {
	return loadWith(r, workers, nil)
}

// LoadPlanned is Load with the execution planner enabled on the rebuilt
// network: the plan is recomputed for this machine and budget (plans are
// not persisted — they describe an execution strategy, not the model), so
// a checkpoint trained unplanned serves planned and vice versa. budget is
// the pooled-spectrum byte budget (0 = unconstrained); maxK caps the
// planner's fused batch width (0 = default).
func LoadPlanned(r io.Reader, workers int, budget int64, maxK int) (*Network, error) {
	return loadWith(r, workers, func(cfg *Config) {
		cfg.Planned = true
		cfg.MemBudget = budget
		cfg.PlanMaxK = maxK
	})
}

// loadWith is the shared Load body; mutate, when non-nil, adjusts the
// stored config before the network is rebuilt.
func loadWith(r io.Reader, workers int, mutate func(*Config)) (*Network, error) {
	if err := chaos.Inject("checkpoint.load"); err != nil {
		return nil, fmt.Errorf("znn: reading checkpoint: %w", err)
	}
	cp, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	cfg := cp.Config
	// The stored spec already includes the sliding-window transform.
	cfg.SlidingWindow = false
	if workers > 0 {
		cfg.Workers = workers
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNetwork(cp.Spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("znn: rebuilding network from spec %q (%v): %w", cp.Spec, err, ErrCheckpointSpec)
	}
	if err := n.SetParams(cp.Params); err != nil {
		n.Close()
		return nil, fmt.Errorf("znn: restoring %d parameters into %s (%v): %w",
			len(cp.Params), n.Spec(), err, ErrCheckpointGeometry)
	}
	return n, nil
}

// LoadFile opens and loads a checkpoint file (see Load).
func LoadFile(path string, workers int) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("znn: opening checkpoint: %w", err)
	}
	defer f.Close()
	return Load(f, workers)
}

// LoadFilePlanned opens and loads a checkpoint file with the execution
// planner enabled (see LoadPlanned).
func LoadFilePlanned(path string, workers int, budget int64, maxK int) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("znn: opening checkpoint: %w", err)
	}
	defer f.Close()
	return LoadPlanned(f, workers, budget, maxK)
}

// decodeCheckpoint reads a v2 or legacy v1 checkpoint stream into its
// payload without building the network. Every failure wraps
// ErrCheckpointCorrupt or ErrCheckpointFormat.
func decodeCheckpoint(r io.Reader) (checkpoint, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(checkpointMagic)); err == nil && bytes.Equal(head, checkpointMagic[:]) {
		return readV2(br)
	}
	// Legacy headerless checkpoint: a bare gob stream.
	var cp checkpoint
	if err := gob.NewDecoder(br).Decode(&cp); err != nil {
		return cp, fmt.Errorf("znn: reading legacy checkpoint (%v): %w", err, ErrCheckpointCorrupt)
	}
	if cp.Format != checkpointFormatLegacy {
		return cp, fmt.Errorf("znn: legacy checkpoint declares format %d: %w", cp.Format, ErrCheckpointFormat)
	}
	return cp, nil
}

// readV2 parses a v2 checkpoint stream positioned at the magic.
func readV2(br *bufio.Reader) (checkpoint, error) {
	var cp checkpoint
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return cp, fmt.Errorf("znn: reading checkpoint header (%v): %w", err, ErrCheckpointCorrupt)
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version > checkpointFormat {
		return cp, fmt.Errorf("znn: checkpoint format %d, this binary understands ≤ %d: %w",
			version, checkpointFormat, ErrCheckpointFormat)
	}
	size := binary.LittleEndian.Uint64(hdr[12:20])
	const maxPayload = 1 << 34 // 16 GiB: refuse absurd lengths from torn headers
	if size > maxPayload {
		return cp, fmt.Errorf("znn: checkpoint declares %d payload bytes: %w", size, ErrCheckpointCorrupt)
	}
	// The buffer grows as bytes arrive, never to the declared length up
	// front: a torn header must not cost its claimed size in memory.
	payload, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err != nil {
		return cp, fmt.Errorf("znn: reading checkpoint payload (%v): %w", err, ErrCheckpointCorrupt)
	}
	if uint64(len(payload)) != size {
		return cp, fmt.Errorf("znn: checkpoint payload truncated at %d of %d bytes: %w",
			len(payload), size, ErrCheckpointCorrupt)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[20:24]) {
		return cp, fmt.Errorf("znn: checkpoint checksum %08x, header says %08x: %w",
			sum, binary.LittleEndian.Uint32(hdr[20:24]), ErrCheckpointCorrupt)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		return cp, fmt.Errorf("znn: decoding checkpoint payload (%v): %w", err, ErrCheckpointCorrupt)
	}
	if cp.Format != checkpointFormat {
		return cp, fmt.Errorf("znn: checkpoint payload declares format %d: %w", cp.Format, ErrCheckpointFormat)
	}
	return cp, nil
}

// ServingCompatible reports whether next can transparently replace n in a
// serving process: identical input/output geometry, input arity and
// spectral precision, so requests validated against one generation stay
// valid on the other and latency characteristics don't silently shift.
// Violations wrap ErrCheckpointGeometry or ErrCheckpointPrecision.
func (n *Network) ServingCompatible(next *Network) error {
	if n.NumInputs() != next.NumInputs() {
		return fmt.Errorf("znn: %d input volumes per request, next generation wants %d: %w",
			n.NumInputs(), next.NumInputs(), ErrCheckpointGeometry)
	}
	if n.InputShape() != next.InputShape() {
		return fmt.Errorf("znn: input shape %v, next generation wants %v: %w",
			n.InputShape(), next.InputShape(), ErrCheckpointGeometry)
	}
	if n.OutputShape() != next.OutputShape() {
		return fmt.Errorf("znn: output shape %v, next generation has %v: %w",
			n.OutputShape(), next.OutputShape(), ErrCheckpointGeometry)
	}
	if n.cfg.Float32 != next.cfg.Float32 {
		return fmt.Errorf("znn: spectral precision %s, next generation is %s: %w",
			precName(n.cfg.Float32), precName(next.cfg.Float32), ErrCheckpointPrecision)
	}
	return nil
}

// CheckpointHint decorates a typed checkpoint error with one line of
// remediation for command-line surfaces (znn-train, znn-serve); errors
// outside the checkpoint taxonomy pass through unchanged.
func CheckpointHint(err error) string {
	switch {
	case errors.Is(err, ErrCheckpointCorrupt):
		return err.Error() + "\n  hint: the file is torn or bit-rotted; restore the previous checkpoint (SaveFile replaces atomically, so a torn file usually means a legacy direct write or disk fault)"
	case errors.Is(err, ErrCheckpointFormat):
		return err.Error() + "\n  hint: the checkpoint was written by a newer znn; upgrade this binary"
	case errors.Is(err, ErrCheckpointSpec):
		return err.Error() + "\n  hint: the stored layer spec no longer builds in this binary; retrain or load with the znn version that wrote it"
	case errors.Is(err, ErrCheckpointGeometry):
		return err.Error() + "\n  hint: the stored parameters do not fit the rebuilt network (width/patch/dims drift); retrain or fix the spec"
	case errors.Is(err, ErrCheckpointPrecision):
		return err.Error() + "\n  hint: the checkpoint's spectral precision differs from the serving pipeline's; rebuild it with the matching -f32 setting"
	default:
		return err.Error()
	}
}

func precName(f32 bool) string {
	if f32 {
		return "float32"
	}
	return "float64"
}
