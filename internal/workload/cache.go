package workload

import (
	"context"
	"encoding/json"

	"idaflash/internal/memo"
)

// TraceCache memoizes generated traces and aging preambles per normalized
// profile. Every (profile, system) pair of an experiment sweep replays the
// same profile trace — the system knobs change the device, never the host
// stream — so generating it once and sharing it across systems removes the
// largest repeated cost of a sweep. Cached traces are handed out as shared
// pointers: the simulator replays them through a cursor and never mutates
// them, and callers must do the same.
//
// Generation is singleflighted and bounded by a memo.Cache: concurrent
// requests for one profile generate it once, and long-lived processes
// sweeping many profiles keep only the most recently used ones. A failed
// generation is not kept.
type TraceCache struct {
	mem *memo.Cache[tracePair]
}

// tracePair is one profile's memoized generation.
type tracePair struct {
	trace, preamble *Trace
}

// defaultTraceCacheLimit bounds the default cache: the paper's sweeps use
// ~20 distinct profiles, so 64 keeps every realistic sweep fully cached.
const defaultTraceCacheLimit = 64

// NewTraceCache builds a cache holding at most limit profiles (<= 0 uses
// the default of 64).
func NewTraceCache(limit int) *TraceCache {
	if limit <= 0 {
		limit = defaultTraceCacheLimit
	}
	return &TraceCache{mem: memo.New[tracePair](limit)}
}

// DefaultTraceCache is the process-wide cache the idaflash run helpers use.
var DefaultTraceCache = NewTraceCache(0)

// Traces returns the profile's trace and aging preamble, generating them on
// the first request and recalling them afterwards. The returned traces are
// shared and must be treated as immutable.
func (c *TraceCache) Traces(p Profile) (trace, preamble *Trace, err error) {
	np, err := p.Normalize()
	if err != nil {
		return nil, nil, err
	}
	generate := func(context.Context) (tracePair, error) {
		tr, err := np.Generate()
		if err != nil {
			return tracePair{}, err
		}
		pre, err := np.AgingPreamble()
		return tracePair{tr, pre}, err
	}
	// The key is the normalized profile's JSON: Profile is plain data and
	// encoding/json emits fields in declaration order, so it is lossless and
	// deterministic.
	var tp tracePair
	if k, kerr := json.Marshal(np); kerr == nil {
		tp, _, err = c.mem.Do(context.Background(), string(k), generate)
	} else {
		// Uncacheable (a non-finite float) is not unrunnable: generate
		// without memoizing.
		tp, err = generate(context.Background())
	}
	if err != nil {
		return nil, nil, err
	}
	return tp.trace, tp.preamble, nil
}

// Stats reports the cache's traffic counters (the service's /statz).
func (c *TraceCache) Stats() memo.Stats { return c.mem.Stats() }
