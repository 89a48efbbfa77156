package sim

import (
	"fmt"
	"time"
)

// Priority orders service classes on a Resource. Lower values are served
// first under the default read-first policy. The three classes model the
// paper's "read-first" scheduling: host reads overtake host writes, and both
// overtake background work (garbage collection and data refresh).
type Priority int

// Service classes, highest priority first.
const (
	PrioHostRead Priority = iota
	PrioHostWrite
	PrioBackground
	numPriorities
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case PrioHostRead:
		return "host-read"
	case PrioHostWrite:
		return "host-write"
	case PrioBackground:
		return "background"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ResourceStats aggregates the utilization of a resource. Queueing delays
// and depths are observed through ResourceHook.
type ResourceStats struct {
	BusyTime time.Duration // total time the server was held
	Grants   [numPriorities]uint64
}

// ResourceHook observes waiter lifecycle events on a resource; telemetry
// recorders implement it to see queue growth and grant waits as they
// happen rather than only at sampling instants. A nil hook (the default)
// costs one branch per event and no allocations.
type ResourceHook interface {
	// ResourceEnqueued fires when a waiter queues behind a busy server;
	// depth is the queue length including the new waiter.
	ResourceEnqueued(r *Resource, p Priority, depth int)
	// ResourceGranted fires when a waiter enters service, with its
	// queueing delay and the hold it was granted.
	ResourceGranted(r *Resource, p Priority, wait, hold time.Duration)
}

// Resource is a single non-preemptive server: a die (one flash command at a
// time) or a channel (one transfer at a time). Acquisitions specify how long
// the server is held; when the hold expires, the completion callback runs
// and the next waiter is served. Which waiter that is depends on the
// scheduling policy — read-first by default, see SchedulerConfig.
type Resource struct {
	name   string
	engine *Engine
	busy   bool
	queue  waitQueues
	stats  ResourceStats
	hook   ResourceHook
	// cur is the completion callback of the hold in service (nil when
	// there is none). The resource itself is the engine Action for the
	// hold's end (Run), so a grant schedules no closure: the
	// single-server discipline guarantees at most one hold is in flight
	// per resource at a time.
	cur Action
}

// NewResource creates a resource bound to the engine under the default
// read-first policy; Reset switches it to another.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{name: name, engine: e, queue: waitQueues{policy: PolicyReadFirst}}
}

// Reset returns the resource to an idle state for reuse under the
// scheduling policy cfg: empty queues, zeroed statistics, no hook. The
// queues keep their grown ring capacity. cfg must be valid (see
// SchedulerConfig.Validate); an unknown policy panics. The engine must not
// hold a pending completion event for this resource (reset only between
// runs, after the engine has drained).
func (r *Resource) Reset(cfg SchedulerConfig) {
	r.busy = false
	r.stats = ResourceStats{}
	r.hook = nil
	r.cur = nil
	r.queue.reset(cfg)
}

// Stats returns a snapshot of the accumulated statistics.
func (r *Resource) Stats() ResourceStats { return r.stats }

// SetHook installs a lifecycle observer (nil removes it).
func (r *Resource) SetHook(h ResourceHook) { r.hook = h }

// Busy reports whether the server is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiters across all priority classes.
func (r *Resource) QueueLen() int { return r.queue.n }

// Acquire requests the server for hold duration at priority p. When service
// completes, then (which may be nil) runs at the completion instant. Holds
// must be non-negative; a zero hold still round-trips through the queue so
// ordering stays consistent.
func (r *Resource) Acquire(p Priority, hold time.Duration, then func()) {
	var op Action
	if then != nil {
		op = funcAction(then)
	}
	r.acquire(p, hold, op)
}

// AcquireAction is the allocation-free counterpart of Acquire: the
// completion callback is a pre-allocated Action (typically a pooled
// operation struct), so neither queueing nor service allocates.
func (r *Resource) AcquireAction(p Priority, hold time.Duration, a Action) {
	r.acquire(p, hold, a)
}

// acquire grants an idle server at once; only a request that has to queue
// is built into a waiter.
func (r *Resource) acquire(p Priority, hold time.Duration, op Action) {
	if p < 0 || p >= numPriorities {
		panic(fmt.Sprintf("sim: resource %s acquire with priority %d", r.name, p))
	}
	if hold < 0 {
		panic(fmt.Sprintf("sim: resource %s acquire with negative hold %v", r.name, hold))
	}
	if r.busy {
		r.queue.push(waiter{prio: p, enqueued: r.engine.now, hold: hold, op: op})
		if r.hook != nil {
			r.hook.ResourceEnqueued(r, p, r.queue.n)
		}
		return
	}
	r.serve(p, 0, hold, op)
}

// serve starts a hold of the server at priority p after a queueing delay
// of wait.
func (r *Resource) serve(p Priority, wait, hold time.Duration, op Action) {
	r.busy = true
	r.stats.Grants[p]++
	r.stats.BusyTime += hold
	if r.hook != nil {
		r.hook.ResourceGranted(r, p, wait, hold)
	}
	r.cur = op
	r.engine.AfterAction(hold, r)
}

// Run completes the hold in service; the engine invokes it at the
// completion instant. The completion callback runs while the server is
// still marked busy, so a callback that immediately re-acquires (e.g. a
// chained refresh step) queues behind already-waiting work rather than
// cutting the line.
func (r *Resource) Run() {
	op := r.cur
	r.cur = nil // drop the callback reference before running it
	if op != nil {
		op.Run()
	}
	r.busy = false
	if r.queue.n > 0 {
		r.next()
	}
}

// next serves the waiter the policy picks; the queue must be non-empty.
func (r *Resource) next() {
	w := r.queue.pop(r.engine.now)
	r.serve(w.prio, r.engine.now-w.enqueued, w.hold, w.op)
}

// Utilization returns the fraction of simulated time (up to now) the server
// was busy. It returns 0 before any time has passed.
func (r *Resource) Utilization() float64 {
	now := r.engine.Now()
	if now <= 0 {
		return 0
	}
	return float64(r.stats.BusyTime) / float64(now)
}
