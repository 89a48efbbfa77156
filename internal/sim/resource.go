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

// ResourceStats aggregates the utilization of a resource.
type ResourceStats struct {
	BusyTime   time.Duration // total time the server was held
	Grants     [numPriorities]uint64
	WaitTime   [numPriorities]time.Duration // queueing delay before service
	MaxQueue   int
	LastIdleAt Time
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
// and the scheduler picks the next waiter. Which waiter that is depends on
// the scheduling policy — read-first by default, see Scheduler.
type Resource struct {
	name   string
	engine *Engine
	busy   bool
	sched  Scheduler
	stats  ResourceStats
	hook   ResourceHook
	// current is the waiter in service. The resource itself is the
	// engine Action for its completion (Run), so serving a waiter
	// schedules no closure: the single-server discipline guarantees at
	// most one hold is in flight per resource at a time.
	current Waiter
}

// NewResource creates a resource bound to the engine with the default
// read-first scheduler.
func NewResource(e *Engine, name string) *Resource {
	return NewResourceScheduled(e, name, nil)
}

// NewResourceScheduled creates a resource served by the given scheduler.
// The scheduler must be exclusive to this resource (it holds the queue
// state); nil gets a fresh read-first scheduler.
func NewResourceScheduled(e *Engine, name string, sched Scheduler) *Resource {
	if sched == nil {
		sched = &readFirstScheduler{}
	}
	return &Resource{name: name, engine: e, sched: sched}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Reset returns the resource to its as-constructed state for reuse: idle,
// empty queues, zeroed statistics. The scheduler keeps its grown ring
// capacity. The engine must not hold a pending completion event for this
// resource (reset only between runs, after the engine has drained).
func (r *Resource) Reset() {
	r.busy = false
	r.stats = ResourceStats{}
	r.hook = nil
	r.current = Waiter{}
	r.sched.Reset()
}

// Policy names the scheduling discipline serving this resource.
func (r *Resource) Policy() Policy { return r.sched.Policy() }

// Stats returns a snapshot of the accumulated statistics.
func (r *Resource) Stats() ResourceStats { return r.stats }

// SetHook installs a lifecycle observer (nil removes it).
func (r *Resource) SetHook(h ResourceHook) { r.hook = h }

// Busy reports whether the server is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiters across all priority classes.
func (r *Resource) QueueLen() int { return r.sched.Len() }

// Acquire requests the server for hold duration at priority p. When service
// completes, then (which may be nil) runs at the completion instant. Holds
// must be non-negative; a zero hold still round-trips through the queue so
// ordering stays consistent.
func (r *Resource) Acquire(p Priority, hold time.Duration, then func()) {
	var op Action
	if then != nil {
		op = funcAction(then)
	}
	r.acquire(Waiter{Prio: p, hold: hold, op: op})
}

// AcquireAction is the allocation-free counterpart of Acquire: the
// completion callback is a pre-allocated Action (typically a pooled
// operation struct), so neither queueing nor service allocates.
func (r *Resource) AcquireAction(p Priority, hold time.Duration, a Action) {
	r.acquire(Waiter{Prio: p, hold: hold, op: a})
}

func (r *Resource) acquire(w Waiter) {
	if w.Prio < 0 || w.Prio >= numPriorities {
		panic(fmt.Sprintf("sim: resource %s acquire with priority %d", r.name, w.Prio))
	}
	if w.hold < 0 {
		panic(fmt.Sprintf("sim: resource %s acquire with negative hold %v", r.name, w.hold))
	}
	w.Enqueued = r.engine.Now()
	if r.busy {
		r.sched.Push(w)
		q := r.sched.Len()
		if q > r.stats.MaxQueue {
			r.stats.MaxQueue = q
		}
		if r.hook != nil {
			r.hook.ResourceEnqueued(r, w.Prio, q)
		}
		return
	}
	r.serve(w)
}

// serve starts service of w immediately.
func (r *Resource) serve(w Waiter) {
	r.busy = true
	r.stats.Grants[w.Prio]++
	wait := r.engine.Now() - w.Enqueued
	r.stats.WaitTime[w.Prio] += wait
	r.stats.BusyTime += w.hold
	if r.hook != nil {
		r.hook.ResourceGranted(r, w.Prio, wait, w.hold)
	}
	r.current = w
	r.engine.AfterAction(w.hold, r)
}

// Run completes the hold of the waiter in service; the engine invokes it at
// the completion instant. The completion callback runs while the server is
// still marked busy, so a callback that immediately re-acquires (e.g. a
// chained refresh step) queues behind already-waiting work rather than
// cutting the line.
func (r *Resource) Run() {
	w := r.current
	r.current = Waiter{} // drop callback references before running them
	if w.op != nil {
		w.op.Run()
	}
	r.busy = false
	r.stats.LastIdleAt = r.engine.Now()
	r.next()
}

// next asks the scheduler for the waiter to dispatch, if any.
func (r *Resource) next() {
	if w, ok := r.sched.Pop(r.engine.Now()); ok {
		r.serve(w)
	}
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
