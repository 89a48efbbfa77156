package results

import (
	"context"
	"encoding/json"
	"sync/atomic"

	"idaflash/internal/memo"
)

// defaultMemEntries bounds the in-memory tier: result payloads are a few KB
// each, so 512 keeps the whole Figure 8 sweep and several sensitivity grids
// resident for about a megabyte.
const defaultMemEntries = 512

// Store memoizes simulation result payloads by their canonical memo key. It
// has the same two-tier shape as the snapshot store: a bounded, LRU-evicted
// memo.Cache in memory, always on, and an optional content-addressed disk
// tier (SetBlobs) whose files survive the process.
//
// GetOrCompute is the only read path: concurrent callers of one missing key
// run the compute exactly once and share its bytes, a cancelled or failed
// compute is never cached (waiters retry afresh), and every disk failure
// mode degrades to a miss. The payload is opaque bytes — the canonical JSON
// of a Results value — so a cached point is served byte-identical to its
// cold run, across restarts and across clients.
type Store struct {
	mem   *memo.Cache[[]byte]
	blobs atomic.Pointer[Blobs] // nil: memory-only

	// diskHits counts claims the disk tier served: the memo counts them
	// as misses, the store's Stats as hits.
	diskHits atomic.Uint64
}

// NewStore builds a store holding at most limit payloads in memory (<= 0
// uses the default of 512).
func NewStore(limit int) *Store {
	if limit <= 0 {
		limit = defaultMemEntries
	}
	return &Store{mem: memo.New[[]byte](limit)}
}

// SetBlobs attaches (or, with nil, detaches) the persistent tier.
func (s *Store) SetBlobs(b *Blobs) { s.blobs.Store(b) }

// Health reports the disk tier's failure state, or nil when the store is
// memory-only by configuration (no disk attached — nothing to degrade).
func (s *Store) Health() *DiskHealth {
	b := s.blobs.Load()
	if b == nil {
		return nil
	}
	h := b.Disk().Health()
	return &h
}

// Stats are the store's lifetime counters.
type Stats struct {
	// Hits counts callers served without computing: from memory, from
	// disk, or by waiting on another caller's compute.
	Hits uint64 `json:"hits"`
	// Misses counts computes started.
	Misses uint64 `json:"misses"`
	// Evictions counts payloads the memory bound dropped.
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory population.
	Entries int `json:"entries"`
	// Disk is the disk tier's failure state; omitted when memory-only.
	Disk *DiskHealth `json:"disk,omitempty"`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	disk := s.diskHits.Load() // before the memo's misses, which never trail it
	m := s.mem.Stats()
	return Stats{
		Hits:      m.Hits + disk,
		Misses:    m.Misses - disk,
		Evictions: m.Evictions,
		Entries:   m.Entries,
		Disk:      s.Health(),
	}
}

// GetOrCompute resolves key: from memory, from disk, or by running compute
// exactly once across all concurrent callers. cached reports whether this
// caller was served without executing compute (a memory/disk hit, or a wait
// on another caller's compute). A compute error, cancellation or panic
// abandons the claim — errors are never cached — and wakes the waiters to
// retry.
func (s *Store) GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (b []byte, cached bool, err error) {
	b, f, err := s.mem.Claim(ctx, key)
	if f == nil {
		return b, err == nil, err
	}
	defer f.Abandon() // no-op once published; covers errors and panics

	blobs := s.blobs.Load()
	if blobs != nil {
		if payload := blobs.Get(key); payload != nil {
			// Result payloads are canonical JSON and the blob files carry
			// no checksum, so a torn write shows up here as an invalid
			// document. Drop it and recompute rather than serve garbage.
			if json.Valid(payload) {
				f.Publish(payload)
				s.diskHits.Add(1)
				return payload, true, nil
			}
			blobs.Delete(key)
		}
	}
	payload, err := compute(ctx)
	if err != nil || payload == nil {
		if err == nil {
			err = context.Canceled
		}
		return nil, false, err
	}
	f.Publish(payload)
	if blobs != nil {
		blobs.Put(key, payload)
	}
	return payload, false, nil
}
