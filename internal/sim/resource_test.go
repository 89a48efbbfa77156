package sim

import (
	"testing"
	"time"
)

func TestResourceSerializesHolds(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die0")
	var done []Time
	for i := 0; i < 3; i++ {
		r.Acquire(PrioHostRead, 100*time.Microsecond, func() {
			done = append(done, e.Now())
		})
	}
	e.Run()
	want := []Time{100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond}
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceReadFirstScheduling(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die0")
	var order []string
	// Occupy the server, then enqueue background, write, read in that
	// arrival order; they must be served read, write, background.
	r.Acquire(PrioHostRead, 10*time.Microsecond, func() { order = append(order, "first") })
	r.Acquire(PrioBackground, 10*time.Microsecond, func() { order = append(order, "bg") })
	r.Acquire(PrioHostWrite, 10*time.Microsecond, func() { order = append(order, "write") })
	r.Acquire(PrioHostRead, 10*time.Microsecond, func() { order = append(order, "read") })
	e.Run()
	want := []string{"first", "read", "write", "bg"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceFIFOWithinClass(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch")
	var order []int
	r.Acquire(PrioHostRead, time.Microsecond, nil)
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(PrioHostRead, time.Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("within-class order = %v", order)
		}
	}
}

func TestResourceIdleServesImmediately(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	served := false
	r.Acquire(PrioBackground, 50*time.Microsecond, func() { served = true })
	e.Run()
	if !served {
		t.Error("idle resource never served")
	}
	if e.Now() != 50*time.Microsecond {
		t.Errorf("clock = %v, want 50us", e.Now())
	}
}

func TestResourceZeroHold(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	n := 0
	r.Acquire(PrioHostRead, 0, func() { n++ })
	r.Acquire(PrioHostRead, 0, func() { n++ })
	e.Run()
	if n != 2 {
		t.Errorf("served %d, want 2", n)
	}
}

func TestResourceStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	r.Acquire(PrioHostRead, 100*time.Microsecond, nil)
	r.Acquire(PrioHostWrite, 50*time.Microsecond, nil)
	e.Run()
	st := r.Stats()
	if st.BusyTime != 150*time.Microsecond {
		t.Errorf("busy = %v", st.BusyTime)
	}
	if st.Grants[PrioHostRead] != 1 || st.Grants[PrioHostWrite] != 1 {
		t.Errorf("grants = %v", st.Grants)
	}
	if got := r.Utilization(); got != 1.0 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
	if r.name != "die" {
		t.Errorf("name = %q", r.name)
	}
}

func TestResourceChainedReacquire(t *testing.T) {
	// A completion callback that immediately re-acquires must not starve
	// already-queued waiters of equal priority... it goes to the back.
	e := NewEngine()
	r := NewResource(e, "die")
	var order []string
	r.Acquire(PrioHostRead, 10*time.Microsecond, func() {
		r.Acquire(PrioHostRead, 10*time.Microsecond, func() { order = append(order, "chain") })
	})
	r.Acquire(PrioHostRead, 10*time.Microsecond, func() { order = append(order, "queued") })
	e.Run()
	if len(order) != 2 || order[0] != "queued" || order[1] != "chain" {
		t.Errorf("order = %v, want [queued chain]", order)
	}
}

func TestResourcePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	for _, fn := range []func(){
		func() { r.Acquire(Priority(-1), time.Microsecond, nil) },
		func() { r.Acquire(numPriorities, time.Microsecond, nil) },
		func() { r.Acquire(PrioHostRead, -time.Microsecond, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPriorityString(t *testing.T) {
	names := map[Priority]string{PrioHostRead: "host-read", PrioHostWrite: "host-write", PrioBackground: "background"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if Priority(42).String() == "" {
		t.Error("unknown priority should render")
	}
}

func TestResourceQueueLenAndBusy(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	r.Acquire(PrioHostRead, 10*time.Microsecond, nil)
	r.Acquire(PrioHostRead, 10*time.Microsecond, nil)
	r.Acquire(PrioBackground, 10*time.Microsecond, nil)
	if !r.Busy() {
		t.Error("resource should be busy")
	}
	if r.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2", r.QueueLen())
	}
	e.Run()
	if r.Busy() || r.QueueLen() != 0 {
		t.Error("resource should be idle and drained")
	}
}

// hookLog records ResourceHook callbacks for inspection.
type hookLog struct {
	enqueued []int // queue depths
	grants   []struct {
		p          Priority
		wait, hold time.Duration
	}
}

func (h *hookLog) ResourceEnqueued(r *Resource, p Priority, depth int) {
	h.enqueued = append(h.enqueued, depth)
}

func (h *hookLog) ResourceGranted(r *Resource, p Priority, wait, hold time.Duration) {
	h.grants = append(h.grants, struct {
		p          Priority
		wait, hold time.Duration
	}{p, wait, hold})
}

func TestResourceHookSeesQueueingAndGrants(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	h := &hookLog{}
	r.SetHook(h)
	r.Acquire(PrioHostRead, 10*time.Microsecond, nil)  // served immediately
	r.Acquire(PrioHostWrite, 5*time.Microsecond, nil)  // queued at depth 1
	r.Acquire(PrioBackground, 2*time.Microsecond, nil) // queued at depth 2
	e.Run()
	if len(h.enqueued) != 2 || h.enqueued[0] != 1 || h.enqueued[1] != 2 {
		t.Fatalf("enqueue depths = %v, want [1 2]", h.enqueued)
	}
	if len(h.grants) != 3 {
		t.Fatalf("grants = %d, want 3", len(h.grants))
	}
	first := h.grants[0]
	if first.p != PrioHostRead || first.wait != 0 || first.hold != 10*time.Microsecond {
		t.Errorf("first grant = %+v, want immediate read for 10us", first)
	}
	// The write waited the read's full hold; the background waiter both.
	if h.grants[1].wait != 10*time.Microsecond {
		t.Errorf("write wait = %v, want 10us", h.grants[1].wait)
	}
	if h.grants[2].wait != 15*time.Microsecond {
		t.Errorf("background wait = %v, want 15us", h.grants[2].wait)
	}
}
