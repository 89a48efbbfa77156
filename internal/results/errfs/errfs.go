// Package errfs is a deterministic fault-injecting results.FS middleware.
// It wraps a real (or in-memory) filesystem and makes selected operations
// fail the way disks actually fail — EIO, ENOSPC, torn writes that persist
// a prefix while reporting success, short reads that drop the tail — under
// rules keyed by operation ordinal or count.
//
// Everything is deterministic: the per-operation counters advance in
// program order, so a failing test reproduces exactly. The package is used
// by the fault tests of both internal/results and internal/snapshot.
package errfs

import (
	"fmt"
	"os"
	"sync"
	"syscall"

	"idaflash/internal/results"
)

// Op selects which filesystem operation a rule applies to.
type Op int

const (
	// OpRead targets FS.ReadFile.
	OpRead Op = iota
	// OpWrite targets FS.WriteFile.
	OpWrite
	// OpRemove targets FS.Remove.
	OpRemove
	// OpReadDir targets FS.ReadDir.
	OpReadDir
	numOps
)

// String names the op for test diagnostics.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	case OpReadDir:
		return "readdir"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Mode selects how a matched operation fails.
type Mode int

const (
	// EIO fails the operation with an error wrapping syscall.EIO.
	EIO Mode = iota
	// ENOSPC fails the operation with an error wrapping syscall.ENOSPC.
	// Meaningful for writes; other ops treat it like EIO.
	ENOSPC
	// Torn applies to writes only: the inner filesystem persists the first
	// half of the payload, and the call reports success — the lying-disk
	// case that checksums and JSON validation exist to catch.
	Torn
	// Short applies to reads only: the call succeeds but returns the first
	// half of the file's bytes.
	Short
)

// String names the mode for test diagnostics.
func (m Mode) String() string {
	switch m {
	case EIO:
		return "eio"
	case ENOSPC:
		return "enospc"
	case Torn:
		return "torn"
	case Short:
		return "short"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

type rule struct {
	op   Op
	mode Mode
	at   int // fire when the op ordinal equals at (1-based); 0 = off
	left int // fire on the next `left` matching ops; decremented
}

func (r *rule) fires(ordinal int) bool {
	switch {
	case r.at > 0:
		return ordinal == r.at
	case r.left > 0:
		r.left--
		return true
	}
	return false
}

// FS wraps an inner results.FS and injects faults per its rules. Safe for
// concurrent use; rule evaluation and the fault decision are serialized so
// op ordinals are well defined even under -race.
type FS struct {
	inner results.FS

	mu    sync.Mutex
	count [numOps]int
	rules []*rule
}

// New wraps inner (nil: the real filesystem) with a fault injector. With no
// rules installed it is a transparent passthrough.
func New(inner results.FS) *FS {
	if inner == nil {
		inner = results.OSFS{}
	}
	return &FS{inner: inner}
}

// FailAt makes the at-th (1-based) operation of kind op fail with mode.
func (f *FS) FailAt(op Op, at int, mode Mode) *FS {
	return f.add(&rule{op: op, mode: mode, at: at})
}

// FailNext makes the next n operations of kind op fail with mode.
func (f *FS) FailNext(op Op, n int, mode Mode) *FS {
	return f.add(&rule{op: op, mode: mode, left: n})
}

func (f *FS) add(r *rule) *FS {
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
	return f
}

// Reset clears all rules and operation counters.
func (f *FS) Reset() {
	f.mu.Lock()
	f.rules = nil
	f.count = [numOps]int{}
	f.mu.Unlock()
}

// Ops reports how many operations of the given kind have been issued.
func (f *FS) Ops(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count[op]
}

// decide advances op's ordinal and returns the firing mode, if any.
func (f *FS) decide(op Op) (Mode, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count[op]++
	ordinal := f.count[op]
	for _, r := range f.rules {
		if r.op == op && r.fires(ordinal) {
			return r.mode, true
		}
	}
	return 0, false
}

func faultErr(mode Mode, op Op, path string) error {
	errno := syscall.EIO
	if mode == ENOSPC {
		errno = syscall.ENOSPC
	}
	return fmt.Errorf("errfs: injected %v on %v %s: %w", mode, op, path, errno)
}

// ReadFile implements results.FS. EIO/ENOSPC fail the read; Short returns
// the first half of the real content as a success.
func (f *FS) ReadFile(path string) ([]byte, error) {
	mode, fire := f.decide(OpRead)
	if fire {
		switch mode {
		case Short:
			b, err := f.inner.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return b[:len(b)/2], nil
		default:
			return nil, faultErr(mode, OpRead, path)
		}
	}
	return f.inner.ReadFile(path)
}

// WriteFile implements results.FS. EIO/ENOSPC fail the write; Torn persists
// the first half of the payload and reports success; Short degrades to Torn.
func (f *FS) WriteFile(dir, name string, data []byte, sync bool) error {
	mode, fire := f.decide(OpWrite)
	if fire {
		switch mode {
		case Torn, Short:
			// The lying disk: commit a prefix, report a win.
			_ = f.inner.WriteFile(dir, name, data[:len(data)/2], sync)
			return nil
		default:
			return faultErr(mode, OpWrite, name)
		}
	}
	return f.inner.WriteFile(dir, name, data, sync)
}

// Remove implements results.FS.
func (f *FS) Remove(path string) error {
	if mode, fire := f.decide(OpRemove); fire && mode != Torn && mode != Short {
		return faultErr(mode, OpRemove, path)
	}
	return f.inner.Remove(path)
}

// ReadDir implements results.FS.
func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) {
	if mode, fire := f.decide(OpReadDir); fire && mode != Torn && mode != Short {
		return nil, faultErr(mode, OpReadDir, dir)
	}
	return f.inner.ReadDir(dir)
}
