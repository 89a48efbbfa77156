package results

import (
	"context"
	"sync/atomic"

	"idaflash/internal/frame"
	"idaflash/internal/memo"
)

// Cache is the one two-tier cache of the store directory: a bounded,
// LRU-evicted memo.Cache in memory, always on, and an optional blob tier
// (SetBlobs) whose files survive the process. An encode/decode pair moves
// values between the tiers; a blob the decoder rejects is logged, deleted
// and read as a miss, so no disk failure becomes an error for the caller.
// Result payloads (Store) and aged device snapshots (snapshot.Store) are
// its two instances. Get hands the first caller of a missing key a Claim;
// concurrent callers wait until it resolves.
type Cache[V any] struct {
	mem    *memo.Cache[V]
	blobs  atomic.Pointer[Blobs] // nil: memory-only
	encode func(V) ([]byte, error)
	decode func([]byte) (V, error)

	// diskHits counts claims the blob tier served: the memo counts them
	// as misses, Stats as hits.
	diskHits atomic.Uint64

	// Logf, when set, receives fail-soft diagnostics (blobs that failed to
	// decode or encode, rejected restores). The default discards them.
	Logf func(format string, args ...any)
}

// NewCache builds a cache holding at most limit values in memory; limit
// must be positive.
func NewCache[V any](limit int, encode func(V) ([]byte, error), decode func([]byte) (V, error)) *Cache[V] {
	return &Cache[V]{mem: memo.New[V](limit), encode: encode, decode: decode}
}

// SetBlobs attaches (or, with nil, detaches) the persistent tier.
func (c *Cache[V]) SetBlobs(b *Blobs) { c.blobs.Store(b) }

// Health reports the blob tier's failure state, or nil when the cache is
// memory-only by configuration (no disk attached — nothing to degrade).
func (c *Cache[V]) Health() *DiskHealth {
	b := c.blobs.Load()
	if b == nil {
		return nil
	}
	h := b.d.Health()
	return &h
}

// Stats are a cache's lifetime counters.
type Stats struct {
	// Hits counts callers served without computing: from memory, from
	// disk, or by waiting on another caller's compute.
	Hits uint64 `json:"hits"`
	// Misses counts computes started.
	Misses uint64 `json:"misses"`
	// Evictions counts values the memory bound dropped.
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory population.
	Entries int `json:"entries"`
	// Disk is the blob tier's failure state; omitted when memory-only.
	Disk *DiskHealth `json:"disk,omitempty"`
}

// Stats snapshots the counters. A value served from the blob tier counts
// as a hit: the caller did not compute it.
func (c *Cache[V]) Stats() Stats {
	disk := c.diskHits.Load() // before the memo's misses, which never trail it
	m := c.mem.Stats()
	return Stats{
		Hits:      m.Hits + disk,
		Misses:    m.Misses - disk,
		Evictions: m.Evictions,
		Entries:   m.Entries,
		Disk:      c.Health(),
	}
}

func (c *Cache[V]) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Claim is a caller's obligation to compute a missing key. Resolve it with
// Publish or Abandon; once it is resolved Abandon is a no-op, so a
// deferred Abandon safely guards every early exit.
type Claim[V any] struct {
	c   *Cache[V]
	key string
	f   *memo.Flight[V]
}

// Get resolves key. On a hit — memory, blob tier, or another caller's
// claim resolving — it returns the value and a nil claim. On a miss it
// returns a claim the caller must resolve. A wait on another caller's
// claim honours ctx.
func (c *Cache[V]) Get(ctx context.Context, key string) (V, *Claim[V], error) {
	v, f, err := c.mem.Claim(ctx, key)
	if f == nil {
		return v, nil, err
	}
	if v, ok := c.load(key); ok {
		f.Publish(v)
		c.diskHits.Add(1)
		return v, nil, nil
	}
	return v, &Claim[V]{c: c, key: key, f: f}, nil
}

// Publish resolves the claim with v: waiters receive it, the memory tier
// keeps it, and the blob tier persists it.
func (cl *Claim[V]) Publish(v V) {
	cl.f.Publish(v)
	cl.c.save(cl.key, v)
}

// Abandon drops the claim (the compute failed or was cancelled) and wakes
// the waiters to claim the key afresh.
func (cl *Claim[V]) Abandon() { cl.f.Abandon() }

// Drop forgets key in memory and in the blob tier, so not even the next
// process reloads a value a caller found bad.
func (c *Cache[V]) Drop(key string) {
	c.mem.Forget(key)
	if b := c.blobs.Load(); b != nil {
		b.Delete(key)
	}
}

// load reads and decodes key's blob. A blob that fails to decode is
// deleted, so it cannot cost a read and a decode on every lookup.
func (c *Cache[V]) load(key string) (v V, ok bool) {
	blobs := c.blobs.Load()
	if blobs == nil {
		return v, false
	}
	b := blobs.Get(key)
	if b == nil {
		return v, false
	}
	v, err := c.decode(b)
	if err != nil {
		c.logf("results: discarding %s blob for %q: %v", blobs.ext, key, err)
		blobs.Delete(key)
		return v, false
	}
	return v, true
}

// save encodes and persists a value. Errors are logged and swallowed:
// persistence is an optimization.
func (c *Cache[V]) save(key string, v V) {
	blobs := c.blobs.Load()
	if blobs == nil {
		return
	}
	b, err := c.encode(v)
	if err != nil {
		c.logf("results: encoding %s blob for %q: %v", blobs.ext, key, err)
		return
	}
	blobs.Put(key, b)
}

// storeEntries bounds the result store's memory tier: result payloads are a
// few KB each, so 512 keeps the whole Figure 8 sweep and several
// sensitivity grids resident for about a megabyte.
const storeEntries = 512

// Store memoizes simulation result payloads — the canonical JSON of a
// Results value — by their canonical memo key, so a cached point is served
// byte-identical to its cold run, across restarts and across clients.
type Store = Cache[[]byte]

// resultFormat frames result blobs. A blob from before framing (bare JSON)
// fails its magic check and is read as a miss.
var resultFormat = frame.Format{Magic: [8]byte{'I', 'D', 'A', 'R', 'S', 'L', 'T', 0}, Version: 1}

// NewStore builds a result store holding at most 512 payloads in memory.
func NewStore() *Store {
	return NewCache(storeEntries, func(b []byte) ([]byte, error) { return resultFormat.Seal(b), nil }, resultFormat.Open)
}
