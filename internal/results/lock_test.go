//go:build unix

package results

import (
	"strings"
	"testing"
)

// TestLockDirExcludesSecondHolder: while one holder has the store directory
// locked, a second lock fails naming the directory; after release it
// succeeds. (flock locks belong to an open file, so two opens in one
// process contend exactly like two processes.)
func TestLockDirExcludesSecondHolder(t *testing.T) {
	dir := t.TempDir()
	release, err := LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockDir(dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second lock on a held directory: %v, want an error naming %s", err, dir)
	}
	release()
	release, err = LockDir(dir)
	if err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	release()
}
