//go:build !linux

package tile

import (
	"errors"
	"os"
)

// reserve is Linux-only (reserve_linux.go); elsewhere files allocate as they
// are written.
func reserve(*os.File, int64) error { return errors.ErrUnsupported }
