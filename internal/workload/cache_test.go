package workload

import (
	"reflect"
	"sync"
	"testing"
)

func cacheProfile(name string) Profile {
	return Profile{Name: name, ReadRatio: 0.7, MeanReadKB: 8, Requests: 500}
}

// TestTraceCacheSharesOneGeneration checks the cache's core contract:
// repeated and concurrent requests for one profile return the same shared
// trace pointer, generated once. Preambles are generated per call, never
// kept, so every caller gets an equal stream of its own.
func TestTraceCacheSharesOneGeneration(t *testing.T) {
	c := NewTraceCache()
	p := cacheProfile("shared")

	type got struct {
		trace, preamble *Trace
		err             error
	}
	const callers = 8
	results := make([]got, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, pre, err := c.Traces(p)
			results[i] = got{tr, pre, err}
		}()
	}
	wg.Wait()
	first := results[0]
	if first.err != nil {
		t.Fatalf("Traces: %v", first.err)
	}
	if first.trace == nil || len(first.trace.Requests) == 0 {
		t.Fatal("cached trace is empty")
	}
	if first.preamble == nil || len(first.preamble.Requests) == 0 {
		t.Fatal("preamble is empty")
	}
	for i, r := range results[1:] {
		if r.trace != first.trace || r.err != nil {
			t.Fatalf("caller %d got a different generation: %p vs %p (err %v)",
				i+1, r.trace, first.trace, r.err)
		}
		if !reflect.DeepEqual(r.preamble, first.preamble) {
			t.Fatalf("caller %d got a different preamble", i+1)
		}
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Stats().Entries)
	}

	// The key is the normalized profile: a request-count default applied by
	// Normalize must hit the same entry, not duplicate it.
	tr2, _, err := c.Traces(p)
	if err != nil || tr2 != first.trace {
		t.Fatalf("repeat lookup regenerated the trace (err %v)", err)
	}
}

// TestTraceCacheDistinguishesProfiles checks that differing profiles never
// share a trace.
func TestTraceCacheDistinguishesProfiles(t *testing.T) {
	c := NewTraceCache()
	a, _, err := c.Traces(cacheProfile("a"))
	if err != nil {
		t.Fatal(err)
	}
	q := cacheProfile("a")
	q.ReadRatio = 0.3
	b, _, err := c.Traces(q)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct profiles share one cached trace")
	}
	if c.Stats().Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Stats().Entries)
	}
}

// TestTraceCacheEvicts checks the LRU bound: the cache never holds more
// than its limit, and evicted profiles regenerate (to a fresh pointer) on
// the next request.
func TestTraceCacheEvicts(t *testing.T) {
	c := NewTraceCache()
	first, _, err := c.Traces(cacheProfile("p0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < traceCacheLimit+2; i++ {
		p := cacheProfile("p")
		p.Requests = 500 + i // distinct keys
		if _, _, err := c.Traces(p); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Entries > traceCacheLimit {
			t.Fatalf("cache exceeded its limit: %d entries", c.Stats().Entries)
		}
	}
	again, _, err := c.Traces(cacheProfile("p0"))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("evicted entry still served the original pointer")
	}
	// Determinism: regeneration must reproduce the identical request stream.
	if len(again.Requests) != len(first.Requests) {
		t.Fatalf("regenerated trace has %d requests, original %d", len(again.Requests), len(first.Requests))
	}
	for i := range first.Requests {
		if first.Requests[i] != again.Requests[i] {
			t.Fatalf("request %d differs after regeneration: %+v vs %+v", i, first.Requests[i], again.Requests[i])
		}
	}
}
