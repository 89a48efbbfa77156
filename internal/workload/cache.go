package workload

import (
	"context"
	"encoding/json"

	"idaflash/internal/memo"
)

// TraceCache memoizes generated traces per normalized profile. Every
// (profile, system) pair of an experiment sweep replays the same profile
// trace — the system knobs change the device, never the host stream — so
// generating it once and sharing it across systems removes the largest
// repeated cost of a sweep. Cached traces are handed out as shared
// pointers: the simulator replays them through a cursor and never mutates
// them, and callers must do the same.
//
// Aging preambles are deliberately not cached: only a run that ages a
// device (a snapshot miss, or a run without snapshots) reads one, once, so
// a kept preamble would be memory no later run uses. Such a run generates
// its own through Profile.AgingPreamble.
//
// Generation is singleflighted and bounded by a memo.Cache: concurrent
// requests for one profile generate it once, and long-lived processes
// sweeping many profiles keep only the most recently used ones. A failed
// generation is not kept.
type TraceCache struct {
	mem *memo.Cache[*Trace]
}

// traceCacheLimit bounds a cache: the paper's sweeps use ~20 distinct
// profiles, so 64 keeps every realistic sweep fully cached.
const traceCacheLimit = 64

// NewTraceCache builds a cache holding at most 64 profiles.
func NewTraceCache() *TraceCache {
	return &TraceCache{mem: memo.New[*Trace](traceCacheLimit)}
}

// DefaultTraceCache is the process-wide cache the idaflash run helpers use.
var DefaultTraceCache = NewTraceCache()

// Trace returns the profile's trace, generating it on the first request
// and recalling it afterwards. The returned trace is shared and must be
// treated as immutable.
func (c *TraceCache) Trace(p Profile) (*Trace, error) {
	np, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	generate := func(context.Context) (*Trace, error) { return np.Generate() }
	// The key is the normalized profile's JSON: Profile is plain data and
	// encoding/json emits fields in declaration order, so it is lossless and
	// deterministic.
	k, err := json.Marshal(np)
	if err != nil {
		// Uncacheable (a non-finite float) is not unrunnable: generate
		// without memoizing.
		return generate(context.Background())
	}
	tr, _, err := c.mem.Do(context.Background(), string(k), generate)
	return tr, err
}

// Traces returns the profile's cached trace (see Trace) together with a
// freshly generated aging preamble that the cache does not keep. It serves
// callers that age a device on every run; a run that may restore a
// snapshot instead calls Trace and generates the preamble only when it
// ages.
func (c *TraceCache) Traces(p Profile) (trace, preamble *Trace, err error) {
	if trace, err = c.Trace(p); err != nil {
		return nil, nil, err
	}
	if preamble, err = p.AgingPreamble(); err != nil {
		return nil, nil, err
	}
	return trace, preamble, nil
}

// Stats reports the cache's traffic counters (the service's /statz).
func (c *TraceCache) Stats() memo.Stats { return c.mem.Stats() }
