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
// storing one in an Action interface does not allocate: After, Pulse and
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
	// cancellable context; Run then polls it before each batch of events,
	// a batch ending after cancelCheckEvents events or before the first
	// event more than cancelCheckSim past the batch's start, whichever
	// comes first. budget counts the events the batch has left. stopErr is
	// the sticky reason the run loop stopped early — a context error, or
	// whatever a callback passed to Stop, which also zeroes budget.
	ctx     context.Context
	stopErr error
	budget  int
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
	e.budget = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.events) }

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

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) {
	e.schedule(e.now+d, funcAction(fn))
}

// AtAction schedules a pre-allocated Action at absolute time t. Scheduling
// in the past is a programming error and panics: allowing it would
// silently reorder causality.
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
	e.step(n)
	return true
}

// step executes the earliest pending event, the one at index n.
func (e *Engine) step(n int) {
	ev := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	e.now = ev.at
	e.processed++
	ev.op.Run()
}

// SetContext installs a context the run loop polls cooperatively: once it is
// cancelled, Run stops (leaving remaining events queued) and returns
// its error. A nil context — or one that can never be cancelled, like
// context.Background() — disables polling entirely, leaving Run the plain
// Step loop.
func (e *Engine) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		ctx = nil
	}
	e.ctx = ctx
}

// Stop aborts the current run loop after the event in flight: Run returns
// err, and further calls keep returning it. Callbacks use it to turn
// a mid-simulation failure (e.g. an FTL allocation error during background
// GC) into a failed run instead of a panic. A nil err is ignored, as is any
// Stop after the first.
func (e *Engine) Stop(err error) {
	if e.stopErr == nil && err != nil {
		e.stopErr = err
		e.budget = 0
	}
}

// Err returns the error that stopped the engine, if any.
func (e *Engine) Err() error { return e.stopErr }

// Run executes events until the queue is empty, the installed context is
// cancelled, or a callback calls Stop. It returns nil on a full drain and
// the stopping error otherwise.
//
// Without a context installed before Run, the loop is Step alone. With
// one, Run polls it before each batch of events. A batch runs at most
// cancelCheckEvents events, and none due more than cancelCheckSim after
// the batch's first: so a dense stretch is polled every few thousand
// events, and a sparse tail (say, an idle device whose next event is a
// background scan a simulated minute away) is polled before the clock
// jumps. The batch costs one compare per event over the plain loop,
// because budget also carries Stop.
func (e *Engine) Run() error {
	if e.ctx == nil {
		for e.stopErr == nil && e.Step() {
		}
		return e.stopErr
	}
	for e.stopErr == nil && len(e.events) > 0 {
		if err := e.ctx.Err(); err != nil {
			e.Stop(err)
			break
		}
		horizon := e.events[len(e.events)-1].at + cancelCheckSim
		for e.budget = cancelCheckEvents; e.budget > 0; e.budget-- {
			n := len(e.events) - 1
			if n < 0 || e.events[n].at > horizon {
				break
			}
			e.step(n)
		}
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
