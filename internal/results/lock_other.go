//go:build !unix

package results

// LockDir is a no-op where flock is unavailable: the store directory is
// not protected against a second process there.
func LockDir(dir string) (release func(), err error) { return func() {}, nil }
