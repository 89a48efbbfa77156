// Package memo is the one singleflight memoization primitive behind every
// cache of the simulator: generated traces, aged device snapshots, the
// experiment runner's simulations, and the service's result payloads.
//
// The first caller of a missing key claims it and computes; later callers
// wait for the claim to resolve. Publishing shares the value with every
// waiter; abandoning wakes them to claim afresh, so a failed, cancelled or
// panicking computation is never kept. An LRU bounds published entries
// only: in-flight claims are never evicted.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a bounded, concurrency-safe, singleflighted memo of V by key.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V] // published and in flight
	lru     list.List            // published entries, front = most recent
	limit   int

	hits, misses, evictions atomic.Uint64
}

// entry is one key's value, published or in flight. done closes exactly
// once, when the claim resolves; val and ok are immutable afterwards.
type entry[V any] struct {
	key  string
	done chan struct{}
	val  V
	ok   bool          // published (false: abandoned)
	elem *list.Element // position in the LRU; nil while in flight or after removal
}

// Stats are a cache's lifetime counters and current population.
type Stats struct {
	// Hits counts callers served a published value, at once or after
	// waiting on another caller's claim.
	Hits uint64 `json:"hits"`
	// Misses counts claims handed out: callers that had to compute.
	Misses uint64 `json:"misses"`
	// Evictions counts published entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current population, in-flight claims included.
	Entries int `json:"entries"`
}

// New builds a cache keeping at most limit published values; limit must be
// positive.
func New[V any](limit int) *Cache[V] {
	return &Cache[V]{entries: make(map[string]*entry[V]), limit: limit}
}

// Flight is a claim on a missing key. Its holder must resolve it exactly
// once, with Publish or Abandon; later calls are no-ops, so a deferred
// Abandon safely guards every early exit.
type Flight[V any] struct {
	c *Cache[V]
	e *entry[V]
}

// Claim resolves key. A published value is returned as a hit (nil flight).
// A key claimed by another caller is waited on, honoring ctx: the wait ends
// with ctx's error, or with the published value, or — when that claim is
// abandoned — with a fresh attempt. A missing key is claimed and returned
// as a flight the caller must resolve.
func (c *Cache[V]) Claim(ctx context.Context, key string) (V, *Flight[V], error) {
	var zero V
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &entry[V]{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			c.misses.Add(1)
			return zero, &Flight[V]{c: c, e: e}, nil
		}
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, nil, nil
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.ok {
				c.hits.Add(1)
				return e.val, nil, nil
			}
			// Abandoned: claim or wait afresh.
		case <-ctx.Done():
			return zero, nil, ctx.Err()
		}
	}
}

// Publish resolves the claim with v, shares it with every waiter, and
// applies the LRU bound.
func (f *Flight[V]) Publish(v V) {
	c, e := f.c, f.e
	if e == nil {
		return
	}
	f.e = nil
	e.val, e.ok = v, true
	c.mu.Lock()
	if c.entries[e.key] == e { // not forgotten while in flight
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.limit {
			old := c.lru.Remove(c.lru.Back()).(*entry[V])
			old.elem = nil
			delete(c.entries, old.key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// Abandon drops the claim so the next caller computes afresh, then wakes
// the waiters to do exactly that.
func (f *Flight[V]) Abandon() {
	c, e := f.c, f.e
	if e == nil {
		return
	}
	f.e = nil
	c.mu.Lock()
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// Do returns key's value, running fn at most once across concurrent
// callers. cached reports the caller was served without running fn. An
// error from fn (a cancellation included) or a panic unwinding out of it
// abandons the claim — the panic continues to the caller — so nothing but
// a successful value is ever kept.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, cached bool, err error) {
	v, f, err := c.Claim(ctx, key)
	if f == nil {
		return v, err == nil, err
	}
	defer f.Abandon() // no-op once published
	if v, err = fn(ctx); err != nil {
		return v, false, err
	}
	f.Publish(v)
	return v, false, nil
}

// Forget drops key, published or in flight. A forgotten in-flight claim
// still resolves its waiters but is not kept.
func (c *Cache[V]) Forget(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		delete(c.entries, key)
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
	}
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(), Entries: n}
}
