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

// event is one scheduled callback: 24 bytes, the Action stored inline.
type event struct {
	at Time
	op Action
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: the whole simulation runs on one goroutine, which is what
// makes runs bit-for-bit reproducible.
//
// Events run in order of time, ties in scheduling order. They wait in one
// []event kept sorted latest-first, so the earliest event is the last
// element: taking it shrinks the slice, and scheduling shifts only the
// events due no later than the new one. A replay keeps few events pending
// (a peak of about 25 on the paper workloads), and there the linear shift
// beats a binary heap's sifts; the array holds struct values, so
// scheduling never allocates beyond the amortized append growth.
type Engine struct {
	now       Time
	events    []event
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
// pending events, no context, no sticky stop error — while keeping the
// event array's backing storage, so a pooled engine starts its next run
// without reallocating the queue. Pending events are dropped (and zeroed,
// so their callbacks are not retained); callers reset only between runs,
// when the queue has drained anyway.
func (e *Engine) Reset() {
	clear(e.events)
	e.events = e.events[:0]
	e.now = 0
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
func (e *Engine) Pending() int { return len(e.events) }

// next returns the instant of the next event to run, if any: the last
// element of the latest-first array.
func (e *Engine) next() (Time, bool) {
	if n := len(e.events); n > 0 {
		return e.events[n-1].at, true
	}
	return 0, false
}

// schedule validates the timestamp and inserts the event. Every pending
// event was scheduled before this one, so every event due at or before t
// runs first: scanning from the earliest end, each such event moves one
// slot toward the end, and the new event takes the gap behind them.
func (e *Engine) schedule(t Time, op Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.events = append(e.events, event{})
	h := e.events
	i := len(h) - 1
	for i > 0 && h[i-1].at <= t {
		h[i] = h[i-1]
		i--
	}
	h[i] = event{at: t, op: op}
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
// its timestamp. It reports whether an event was executed. The event's
// slot is zeroed so the backing array does not retain its callback.
func (e *Engine) Step() bool {
	n := len(e.events) - 1
	if n < 0 {
		return false
	}
	ev := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	e.now = ev.at
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
