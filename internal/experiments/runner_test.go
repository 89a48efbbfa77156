package experiments

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"idaflash"
	"idaflash/internal/workload"
)

func TestKeyDistinguishesConfigs(t *testing.T) {
	// A valid profile: the canonical key normalizes (default-fills) the
	// profile before encoding, so it must pass Normalize.
	p := workload.Profile{Name: "p", ReadRatio: 0.5, MeanReadKB: 8,
		ReadDataRatio: 0.5, TargetInvalidMSB: 0.3, Requests: 1000}
	base := idaflash.IDA(0.20)
	cases := []struct {
		label string
		a, b  idaflash.System
		pa    workload.Profile
		pb    workload.Profile
	}{
		// Sub-permille error rates truncated to the same key before.
		{label: "error-rate", a: func() idaflash.System { s := base; s.ErrorRate = 0.2001; return s }(),
			b: func() idaflash.System { s := base; s.ErrorRate = 0.2002; return s }(), pa: p, pb: p},
		// Fields omitted from the old hand-rolled key entirely.
		{label: "tight-space", a: base, b: func() idaflash.System { s := base; s.TightSpace = true; return s }(), pa: p, pb: p},
		{label: "scheduler", a: base, b: func() idaflash.System { s := base; s.Scheduler = idaflash.SchedFIFO; return s }(), pa: p, pb: p},
		{label: "devices", a: base, b: func() idaflash.System { s := base; s.Devices = 4; return s }(), pa: p, pb: p},
		{label: "stripe", a: func() idaflash.System { s := base; s.Devices = 4; return s }(),
			b: func() idaflash.System { s := base; s.Devices = 4; s.StripeKB = 128; return s }(), pa: p, pb: p},
		// Profile fields beyond Name/Requests.
		{label: "zipf", a: base, b: base, pa: p,
			pb: func() workload.Profile { q := p; q.ReadZipf = 0.9; return q }()},
		{label: "footprint", a: base, b: base, pa: p,
			pb: func() workload.Profile { q := p; q.FootprintMB = 64; return q }()},
	}
	mustKey := func(p workload.Profile, s idaflash.System) string {
		k, err := Key(p, s)
		if err != nil {
			t.Fatalf("key: %v", err)
		}
		return k
	}
	for _, c := range cases {
		if mustKey(c.pa, c.a) == mustKey(c.pb, c.b) {
			t.Errorf("%s: distinct configs share a cache key", c.label)
		}
	}
	// Identical inputs must still collide (that is the cache's point).
	if mustKey(p, base) != mustKey(p, base) {
		t.Error("identical configs produced different keys")
	}
}

func TestRunAllReportsAllFailures(t *testing.T) {
	r := NewRunner(Options{Requests: 100})
	bad1 := workload.Profile{Name: "bad-one", ReadRatio: 2, MeanReadKB: 8, Requests: 100}
	bad2 := workload.Profile{Name: "bad-two", ReadRatio: -1, MeanReadKB: 8, Requests: 100}
	err := r.RunAll([]pair{
		{profile: bad1, sys: idaflash.Baseline()},
		{profile: bad2, sys: idaflash.Baseline()},
	})
	if err == nil {
		t.Fatal("RunAll swallowed the failures")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bad-one") || !strings.Contains(msg, "bad-two") {
		t.Errorf("joined error missing a failure: %q", msg)
	}
}

func TestRunAllNoErrorOnSuccess(t *testing.T) {
	r := runner(t)
	p, err := idaflash.ProfileByName("usr_1", r.opts.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunAll([]pair{{profile: p, sys: idaflash.Baseline()}}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSingleflight is the dedup regression test: concurrent Run calls on
// one (profile, system) key must invoke the underlying simulation exactly
// once, with every caller sharing the one result. Before the singleflight
// entries, concurrent misses raced past the completed-only cache and each
// ran the full simulation.
func TestRunSingleflight(t *testing.T) {
	r := NewRunner(Options{Requests: 100, Parallel: 8})
	var invocations int32
	started := make(chan struct{})
	release := make(chan struct{})
	r.run = func(_ context.Context, p workload.Profile, sys idaflash.System) (idaflash.Results, error) {
		if atomic.AddInt32(&invocations, 1) == 1 {
			close(started)
		}
		<-release // hold the first run open so every other call sees it in flight
		return idaflash.Results{Trace: p.Name + "/" + sys.Name}, nil
	}

	p := workload.Profile{Name: "sf", Requests: 100}
	sys := idaflash.Baseline()
	const callers = 16
	results := make(chan idaflash.Results, callers)
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(p, sys)
			results <- res
			errs <- err
		}()
	}
	<-started // the first caller is inside the simulation...
	close(release)
	wg.Wait()
	close(results)
	close(errs)

	if n := atomic.LoadInt32(&invocations); n != 1 {
		t.Fatalf("simulation ran %d times for one key, want 1", n)
	}
	for err := range errs {
		if err != nil {
			t.Fatalf("Run returned error: %v", err)
		}
	}
	for res := range results {
		if res.Trace != "sf/"+sys.Name {
			t.Fatalf("caller got wrong shared result: %q", res.Trace)
		}
	}

	// A later call on the same key must also reuse the finished entry.
	if _, err := r.Run(p, sys); err != nil {
		t.Fatalf("cached re-run errored: %v", err)
	}
	if n := atomic.LoadInt32(&invocations); n != 1 {
		t.Fatalf("cache hit re-ran the simulation (%d invocations)", n)
	}
}
