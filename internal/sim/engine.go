// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock, an event queue, and single-server resources with
// priority scheduling. It is the substrate the SSD model (internal/ssd) runs
// on, standing in for the DiskSim engine the paper used.
package sim

import (
	"context"
	"fmt"
	"time"
)

// Time is an absolute instant on the simulated clock, measured as an offset
// from the simulation start. Durations and instants share time.Duration's
// nanosecond resolution.
type Time = time.Duration

// Action is a pre-allocated callback: a state object whose Run method is the
// event body. Scheduling a pointer-backed Action stores the interface value
// inline in the event queue, so — unlike a fresh closure — it costs no
// allocation per event. The simulation hot path (resource completions,
// pooled page operations) schedules Actions; cold paths keep using func()
// callbacks, which the engine wraps as Actions too.
type Action interface {
	Run()
}

// funcAction adapts a closure to Action. A func value is pointer-shaped, so
// storing one in an Action interface does not allocate: At, After and
// Resource.Acquire share the Action dispatch path at no extra cost.
type funcAction func()

func (f funcAction) Run() { f() }

// event is one scheduled callback: 32 bytes, the Action stored inline.
type event struct {
	at  Time
	seq uint64 // insertion order, for deterministic FIFO tie-breaking
	op  Action
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: the whole simulation runs on one goroutine, which is what
// makes runs bit-for-bit reproducible.
//
// Events run in (at, seq) order. Future events wait in an inlined
// index-based binary min-heap over []event; inlining (instead of
// container/heap) keeps events out of interface{} boxes, so pushing and
// popping moves struct values within one backing array and never allocates
// beyond the amortized append growth. Events scheduled for the current
// instant — zero-hold resource grants, same-instant completions — skip the
// heap and wait in a FIFO lane instead (see Step for why that preserves the
// order).
type Engine struct {
	now       Time
	events    []event
	lane      fifo[event]
	seq       uint64
	processed uint64

	// Cooperative cancellation. ctx is nil unless SetContext installed a
	// cancellable context; the run loops poll it at most every
	// cancelCheckEvents events or cancelCheckSim of simulated progress,
	// whichever comes first, so the amortized cost is two integer compares
	// per event. stopErr is the sticky reason the run loops stopped early —
	// a context error, or whatever a callback passed to Stop.
	ctx         context.Context
	stopErr     error
	sinceCheck  uint32
	nextCheckAt Time
}

// Cancellation polling bounds: poll the context at least once per this many
// events and at least once per this much simulated progress. The simulated
// bound keeps cancellation latency under 10 ms of simulated-event progress
// even for sparse event streams; the event bound keeps wall-clock latency in
// the microseconds for dense ones.
const (
	cancelCheckEvents = 4096
	cancelCheckSim    = time.Millisecond
)

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its as-constructed state — clock at zero, no
// pending events, no context, no sticky stop error — while keeping the event
// heap's and the lane's backing arrays, so a pooled engine starts its next
// run without reallocating the queue. Pending events are dropped (and
// zeroed, so their callbacks are not retained); callers reset only between
// runs, when the queue has drained anyway.
func (e *Engine) Reset() {
	clear(e.events)
	e.events = e.events[:0]
	e.lane.reset()
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.ctx = nil
	e.stopErr = nil
	e.sinceCheck = 0
	e.nextCheckAt = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.events) + e.lane.Len() }

// next returns the instant of the next event to run, if any. Lane events
// are all at the current instant.
func (e *Engine) next() (Time, bool) {
	if e.lane.Len() > 0 {
		return e.now, true
	}
	if len(e.events) > 0 {
		return e.events[0].at, true
	}
	return 0, false
}

// eventLess orders the heap by timestamp, breaking ties by insertion order
// so equal-time events run FIFO.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event, sifting a hole up from the new leaf until ev can
// be written into it.
func (e *Engine) push(ev event) {
	e.events = append(e.events, event{})
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event: the last leaf is taken out,
// zeroing its slot so the backing array does not retain callbacks, and a
// hole sifts down from the root until the leaf can be written into it.
func (e *Engine) pop() event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n == 0 {
		return root
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(&h[r], &h[child]) {
			child = r
		}
		if !eventLess(&h[child], &last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return root
}

// schedule validates the timestamp and enqueues the event: on the lane when
// it is due now, on the heap otherwise.
func (e *Engine) schedule(t Time, op Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.lane.Push(event{at: t, seq: e.seq, op: op})
		return
	}
	e.push(event{at: t, seq: e.seq, op: op})
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a programming error and panics: allowing it would silently
// reorder causality.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, funcAction(fn))
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) {
	e.schedule(e.now+d, funcAction(fn))
}

// AtAction schedules a pre-allocated Action at absolute time t. It is the
// allocation-free counterpart of At for callbacks that carry state.
func (e *Engine) AtAction(t Time, a Action) {
	e.schedule(t, a)
}

// AfterAction schedules a pre-allocated Action d after the current time.
func (e *Engine) AfterAction(d time.Duration, a Action) {
	e.schedule(e.now+d, a)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
//
// The order is exactly (at, seq). An event enters the heap only when it is
// scheduled strictly in the future, so every heap event due now was
// scheduled before the clock reached now, and every lane event after: heap
// events at now carry the lower seqs and run first, then the lane drains in
// FIFO (= seq) order, and only then does the clock advance to the heap's
// next instant.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case len(e.events) > 0 && e.events[0].at == e.now:
		ev = e.pop()
	case e.lane.Len() > 0:
		ev = e.lane.Pop()
	case len(e.events) > 0:
		ev = e.pop()
		e.now = ev.at
	default:
		return false
	}
	e.processed++
	ev.op.Run()
	return true
}

// SetContext installs a context the run loop polls cooperatively: once it is
// cancelled, Run stops (leaving remaining events queued) and returns
// its error. A nil context — or one that can never be cancelled, like
// context.Background() — disables polling entirely, keeping the hot loop at
// a single nil check per event.
func (e *Engine) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		e.ctx = nil
		return
	}
	e.ctx = ctx
	e.sinceCheck = 0
	e.nextCheckAt = e.now + cancelCheckSim
}

// Stop aborts the current run loop after the event in flight: Run returns
// err, and further calls keep returning it. Callbacks use it to turn
// a mid-simulation failure (e.g. an FTL allocation error during background
// GC) into a failed run instead of a panic. A nil err is ignored, as is any
// Stop after the first.
func (e *Engine) Stop(err error) {
	if e.stopErr == nil && err != nil {
		e.stopErr = err
	}
}

// Err returns the error that stopped the engine, if any.
func (e *Engine) Err() error { return e.stopErr }

// checkCancel polls the installed context on the amortized schedule.
func (e *Engine) checkCancel() {
	if e.ctx == nil {
		return
	}
	e.sinceCheck++
	if e.sinceCheck < cancelCheckEvents && e.now < e.nextCheckAt {
		return
	}
	e.sinceCheck = 0
	e.nextCheckAt = e.now + cancelCheckSim
	if err := e.ctx.Err(); err != nil && e.stopErr == nil {
		e.stopErr = err
	}
}

// jumpCancel polls the context before an event that would advance the clock
// past the polling horizon. The post-step poll alone bounds detection only
// in dense stretches; a sparse tail (say, an idle device whose next event is
// a background scan a simulated minute away) would otherwise leap minutes
// past a cancellation in a single step. Returns true when the run must stop.
func (e *Engine) jumpCancel() bool {
	if e.ctx == nil {
		return false
	}
	at, ok := e.next()
	if !ok || at <= e.nextCheckAt {
		return false
	}
	e.sinceCheck = 0
	e.nextCheckAt = at + cancelCheckSim
	if err := e.ctx.Err(); err != nil {
		if e.stopErr == nil {
			e.stopErr = err
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty, the installed context is
// cancelled, or a callback calls Stop. It returns nil on a full drain and
// the stopping error otherwise.
// Without a context installed before Run, the loop is Step alone.
func (e *Engine) Run() error {
	if e.ctx == nil {
		for e.stopErr == nil && e.Step() {
		}
		return e.stopErr
	}
	for e.stopErr == nil {
		if e.jumpCancel() || !e.Step() {
			break
		}
		e.checkCancel()
	}
	return e.stopErr
}

// Pulse schedules fn at fixed intervals starting one interval from now,
// re-arming only while other events remain pending: when a pulse fires and
// finds the queue otherwise empty, it does not re-arm, so a finished
// simulation drains instead of ticking forever. Telemetry samplers hang
// off this. A non-positive interval panics.
func (e *Engine) Pulse(interval time.Duration, fn func(now Time)) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: pulse interval %v must be positive", interval))
	}
	var tick func()
	tick = func() {
		fn(e.now)
		if e.Pending() > 0 {
			e.After(interval, tick)
		}
	}
	e.After(interval, tick)
}
