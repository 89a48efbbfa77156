package sim

import (
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"", "read-first", "fifo", "age-aware"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicy("round-robin"); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := (SchedulerConfig{MaxWait: -time.Second}).Validate(); err == nil {
		t.Error("negative MaxWait accepted")
	}
	if err := (SchedulerConfig{Policy: "bogus"}).Validate(); err == nil {
		t.Error("bogus policy accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset accepted a bogus policy")
			}
		}()
		NewResource(NewEngine(), "srv").Reset(SchedulerConfig{Policy: "bogus"})
	}()
}

// newScheduled builds a resource on e and resets it to serve under cfg,
// the way the device model switches a pooled resource's policy.
func newScheduled(e *Engine, cfg SchedulerConfig) *Resource {
	r := NewResource(e, "srv")
	r.Reset(cfg)
	return r
}

// order runs one resource under the policy and returns the order in which
// queued acquisitions were served. The resource is first occupied by a
// long-running hold so every later Acquire queues.
func order(t *testing.T, cfg SchedulerConfig, submit func(r *Resource, record func(id string) func())) []string {
	t.Helper()
	return orderOn(t, newScheduled(NewEngine(), cfg), submit)
}

// orderOn is order on a given (idle, drained) resource.
func orderOn(t *testing.T, r *Resource, submit func(r *Resource, record func(id string) func())) []string {
	t.Helper()
	e := r.engine
	var got []string
	record := func(id string) func() {
		return func() { got = append(got, id) }
	}
	e.At(0, func() {
		r.Acquire(PrioBackground, time.Millisecond, nil) // occupy the server
		submit(r, record)
	})
	e.Run()
	return got
}

func TestReadFirstOrdersClasses(t *testing.T) {
	got := order(t, SchedulerConfig{}, func(r *Resource, rec func(string) func()) {
		r.Acquire(PrioBackground, time.Microsecond, rec("bg"))
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w1"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r1"))
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w2"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r2"))
	})
	want := []string{"r1", "r2", "w1", "w2", "bg"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read-first order = %v, want %v", got, want)
		}
	}
}

func TestFIFOKeepsArrivalOrder(t *testing.T) {
	got := order(t, SchedulerConfig{Policy: PolicyFIFO}, func(r *Resource, rec func(string) func()) {
		r.Acquire(PrioBackground, time.Microsecond, rec("bg"))
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w1"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r1"))
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w2"))
	})
	want := []string{"bg", "w1", "r1", "w2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fifo order = %v, want %v", got, want)
		}
	}
}

func TestAgeAwarePromotesStarvedWrite(t *testing.T) {
	// The server is held for 1 ms; a write queues at t=0, reads keep
	// arriving. With MaxWait 500 us the write is over age when the first
	// hold expires, so it is served before the queued reads.
	got := order(t, SchedulerConfig{Policy: PolicyAgeAware, MaxWait: 500 * time.Microsecond}, func(r *Resource, rec func(string) func()) {
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w1"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r1"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r2"))
	})
	want := []string{"w1", "r1", "r2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("age-aware order = %v, want %v", got, want)
		}
	}
}

func TestAgeAwareFreshWritesStillYieldToReads(t *testing.T) {
	// With a large MaxWait nothing is over age, so the discipline matches
	// read-first exactly.
	got := order(t, SchedulerConfig{Policy: PolicyAgeAware, MaxWait: time.Hour}, func(r *Resource, rec func(string) func()) {
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w1"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r1"))
		r.Acquire(PrioBackground, time.Microsecond, rec("bg"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r2"))
	})
	want := []string{"r1", "r2", "w1", "bg"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("age-aware (fresh) order = %v, want %v", got, want)
		}
	}
}

func TestAgeAwareOldestAgedWinsAcrossClasses(t *testing.T) {
	// A background waiter older than an aged write is served first; ties
	// go to the higher class. Holds are long enough that both are over
	// age at the first dispatch.
	e := NewEngine()
	r := newScheduled(e, SchedulerConfig{Policy: PolicyAgeAware, MaxWait: time.Microsecond})
	var got []string
	rec := func(id string) func() { return func() { got = append(got, id) } }
	e.At(0, func() {
		r.Acquire(PrioHostRead, time.Millisecond, nil) // occupy
		r.Acquire(PrioBackground, time.Microsecond, rec("bg"))
	})
	e.At(500*time.Microsecond, func() {
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r"))
	})
	e.Run()
	want := []string{"bg", "w", "r"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerLenAndPolicyNames(t *testing.T) {
	for _, cfg := range []SchedulerConfig{{}, {Policy: PolicyFIFO}, {Policy: PolicyAgeAware}} {
		e := NewEngine()
		r := newScheduled(e, cfg)
		want := cfg.Policy
		if want == "" {
			want = PolicyReadFirst
		}
		if r.queue.policy != want {
			t.Errorf("Policy = %s, want %s", r.queue.policy, want)
		}
		if r.QueueLen() != 0 {
			t.Errorf("%s: fresh Len = %d", r.queue.policy, r.QueueLen())
		}
		r.Acquire(PrioBackground, time.Microsecond, nil) // occupy
		r.Acquire(PrioHostRead, time.Microsecond, nil)
		r.Acquire(PrioHostWrite, time.Microsecond, nil)
		if r.QueueLen() != 2 {
			t.Errorf("%s: Len = %d, want 2", r.queue.policy, r.QueueLen())
		}
		if !e.Step() {
			t.Fatalf("%s: no completion to step", r.queue.policy)
		}
		if r.QueueLen() != 1 {
			t.Errorf("%s: Len after pop = %d, want 1", r.queue.policy, r.QueueLen())
		}
	}
	found := map[Policy]bool{}
	for _, p := range Policies() {
		found[p] = true
	}
	if !found[PolicyReadFirst] || !found[PolicyFIFO] || !found[PolicyAgeAware] {
		t.Errorf("Policies() = %v incomplete", Policies())
	}
}

// TestResetSwitchesPolicy: one resource reset read-first -> fifo ->
// age-aware -> read-first serves, under each policy, the same order as a
// fresh resource built for it. Resetting in place is how a pooled device
// changes its scheduling discipline.
func TestResetSwitchesPolicy(t *testing.T) {
	submit := func(r *Resource, rec func(string) func()) {
		r.Acquire(PrioBackground, time.Microsecond, rec("bg"))
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w1"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r1"))
		r.Acquire(PrioHostWrite, time.Microsecond, rec("w2"))
		r.Acquire(PrioHostRead, time.Microsecond, rec("r2"))
	}
	pooled := NewResource(NewEngine(), "srv")
	for _, cfg := range []SchedulerConfig{
		{},
		{Policy: PolicyFIFO},
		{Policy: PolicyAgeAware, MaxWait: 500 * time.Microsecond},
		{Policy: PolicyReadFirst},
	} {
		pooled.engine.Reset()
		pooled.Reset(cfg)
		got := orderOn(t, pooled, submit)
		want := order(t, cfg, submit)
		if len(got) != len(want) || len(got) != 5 {
			t.Fatalf("%+v: served %v, fresh resource %v", cfg, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: reset resource served %v, fresh resource %v", cfg, got, want)
			}
		}
		if pooled.queue.policy != newScheduled(NewEngine(), cfg).queue.policy {
			t.Errorf("%+v: reset resource reports policy %s", cfg, pooled.queue.policy)
		}
	}
}
