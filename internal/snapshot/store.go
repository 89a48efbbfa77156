package snapshot

import (
	"context"
	"sync"

	"idaflash/internal/memo"
)

// defaultStoreLimit bounds the in-memory tier. A captured state is a few
// hundred KB for the experiment-scale devices; the paper's sweeps touch ~20
// distinct profiles (a handful of array variants each), so 64 keeps every
// realistic sweep resident.
const defaultStoreLimit = 64

// Store caches aged device states by an opaque caller-built key (the
// facade's normalized-profile + device-shape key). It has two tiers: a
// bounded, LRU-evicted memo.Cache in memory, always on, and an optional
// persistent blob tier (SetBlobs) — the process-wide shared blob root that
// snapshots and result payloads split one eviction budget over, which CI
// caches across workflow runs.
//
// Get implements singleflight claims: the first caller of a missing key
// receives a publish callback and computes the state (by running the aging
// phases); concurrent callers of the same key block until it publishes.
// Publishing nil abandons the claim (the compute failed or was cancelled)
// and wakes the waiters to claim it afresh. Every failure mode — corrupt
// blob, version skew, cancelled compute — degrades to a miss, never an
// error for the run.
type Store struct {
	mem *memo.Cache[*DeviceState]

	mu    sync.Mutex
	blobs Blobs

	// Logf, when set, receives fail-soft diagnostics (corrupt blobs,
	// rejected restores). The default discards them.
	Logf func(format string, args ...any)
}

// Blobs is a content-addressed persistent blob tier. The facade wires the
// shared results.Disk root here so snapshot blobs and result payloads live
// under one directory with one eviction budget. Declared structurally so
// this package needs no import of the disk implementation.
type Blobs interface {
	// Get returns the blob stored under key, or nil on any miss.
	Get(key string) []byte
	// Put stores a blob under key atomically.
	Put(key string, b []byte)
	// Delete removes key's blob (a corrupt snapshot the decoder rejected).
	Delete(key string)
}

// NewStore builds a store holding at most limit states in memory (<= 0 uses
// the default of 64).
func NewStore(limit int) *Store {
	if limit <= 0 {
		limit = defaultStoreLimit
	}
	return &Store{mem: memo.New[*DeviceState](limit)}
}

// SetBlobs attaches (or, with nil, detaches) the persistent blob tier.
func (s *Store) SetBlobs(b Blobs) {
	s.mu.Lock()
	s.blobs = b
	s.mu.Unlock()
}

func (s *Store) tier() Blobs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blobs
}

// Stats reports the memory tier's traffic counters (the service's /statz).
// A state restored from the blob tier counts as a miss there.
func (s *Store) Stats() memo.Stats { return s.mem.Stats() }

// logf dispatches to Logf when set.
func (s *Store) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Get resolves a key. On a hit (memory or blob tier) it returns the state
// and a nil publish. On a miss it claims the key and returns a nil state
// plus a publish callback the caller MUST invoke: with the computed state
// to fill the cache, or with nil to abandon the claim. Only the first call
// counts. Concurrent Gets of a claimed key wait for the publish, honoring
// ctx.
func (s *Store) Get(ctx context.Context, key string) (st *DeviceState, publish func(*DeviceState), err error) {
	st, f, err := s.mem.Claim(ctx, key)
	if f == nil {
		return st, nil, err
	}
	if st := s.load(key); st != nil {
		f.Publish(st)
		return st, nil, nil
	}
	return nil, func(st *DeviceState) {
		if st == nil {
			f.Abandon()
			return
		}
		f.Publish(st)
		s.save(key, st)
	}, nil
}

// Drop forgets a key (a restore rejected its state), in memory and in the
// blob tier, so the next process does not reload the same bad state.
func (s *Store) Drop(key string) {
	s.mem.Forget(key)
	if blobs := s.tier(); blobs != nil {
		blobs.Delete(key)
	}
}

// load reads and decodes a key's persisted state, failing soft: any problem
// (missing blob, truncation, bad checksum, version skew) is a miss, and a
// structurally bad blob is deleted so it cannot cost a decode on every run.
func (s *Store) load(key string) *DeviceState {
	blobs := s.tier()
	if blobs == nil {
		return nil
	}
	b := blobs.Get(key)
	if b == nil {
		return nil
	}
	st, err := Decode(b)
	if err != nil {
		s.logf("snapshot: discarding blob for %q: %v", key, err)
		blobs.Delete(key)
		return nil
	}
	return st
}

// save encodes and persists a state; the blob tier writes atomically, so a
// crashed or concurrent writer never leaves a torn blob for load to trip
// over. Errors are logged and swallowed: persistence is an optimization.
func (s *Store) save(key string, st *DeviceState) {
	blobs := s.tier()
	if blobs == nil {
		return
	}
	b, err := Encode(st)
	if err != nil {
		s.logf("snapshot: encoding %q: %v", key, err)
		return
	}
	blobs.Put(key, b)
}
