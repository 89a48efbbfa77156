//go:build unix

package results

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// LockDir takes an exclusive lock on dir/LOCK, so two processes never
// share one store directory: they would interleave job journals and
// reissue each other's job IDs. The lock is an flock on an open file, so
// the kernel drops it when the process exits, however it exits; release
// drops it sooner. A directory another process holds fails with an error
// naming it.
func LockDir(dir string) (release func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("results: store directory %s is locked by another process: %w", dir, err)
	}
	return func() { _ = f.Close() }, nil
}
