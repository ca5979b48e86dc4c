package tile

import (
	"os"
	"syscall"
)

// reserve allocates the first n bytes of f. Stitched rows then land in
// allocated blocks instead of delayed-allocation ones, which ext4 starts
// writing to disk when a file that was truncated on open is closed. Without
// the reservation, a caller rewriting its output file on every pass
// (znn-infer in a loop, the benchmark) sends the whole volume to disk per
// pass, and the next pass's O_TRUNC waits for that I/O: 2–100 ms that depend
// on the disk, not on inference. With it, the truncation drops the dirty
// pages. Callers ignore the error: a filesystem without fallocate, or a
// pipe, just allocates as it writes.
func reserve(f *os.File, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) { err = syscall.Fallocate(int(fd), 0, 0, n) }); cerr != nil {
		return cerr
	}
	return err
}
