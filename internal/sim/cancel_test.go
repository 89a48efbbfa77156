package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEngineCancelStopsWithinSimBound: once the context is cancelled, the
// run loop must notice within cancelCheckSim of simulated progress even when
// the event stream is too sparse to hit the event-count bound.
func TestEngineCancelStopsWithinSimBound(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	var tick func()
	fired := 0
	tick = func() {
		fired++
		if fired == 3 {
			cancel()
		}
		e.After(100*time.Microsecond, tick)
	}
	e.After(100*time.Microsecond, tick)
	err := e.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if e.Err() == nil {
		t.Fatal("Err() not sticky after cancellation")
	}
	// Cancellation happened at t=300us; the poll must land within the
	// simulated check interval plus one event spacing.
	limit := 300*time.Microsecond + cancelCheckSim + 100*time.Microsecond
	if e.Now() > limit {
		t.Fatalf("engine ran to %v after cancel at 300us (bound %v)", e.Now(), limit)
	}
	if e.Pending() == 0 {
		t.Fatal("cancelled run should leave the pending event queued")
	}
}

// TestEngineCancelStopsWithinEventBound: a dense stream of same-instant
// events must still observe cancellation via the event-count bound.
func TestEngineCancelStopsWithinEventBound(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run even starts
	e.SetContext(ctx)
	var tick func()
	tick = func() { e.After(1, tick) } // zero simulated progress per many events? 1ns each
	e.After(1, tick)
	if err := e.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if e.Processed() > cancelCheckEvents+1 {
		t.Fatalf("processed %d events after pre-cancelled context (bound %d)", e.Processed(), cancelCheckEvents)
	}
}

func TestEngineDeadlineExceeded(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	e.SetContext(ctx)
	var tick func()
	tick = func() {
		time.Sleep(100 * time.Microsecond) // burn wall clock toward the deadline
		e.After(time.Microsecond, tick)
	}
	e.After(time.Microsecond, tick)
	if err := e.Run(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run() = %v, want context.DeadlineExceeded", err)
	}
}

// TestEngineBackgroundContextIsFree: Background (and nil) disable polling
// entirely — the run drains fully and returns nil.
func TestEngineBackgroundContextIsFree(t *testing.T) {
	e := NewEngine()
	e.SetContext(context.Background())
	if e.ctx != nil {
		t.Fatal("Background context should disable polling")
	}
	e.At(time.Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
}

func TestEngineStopFromCallback(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	ran := 0
	e.At(1, func() { ran++ })
	e.At(2, func() { ran++; e.Stop(boom) })
	e.At(3, func() { ran++ })
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run() = %v, want boom", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d events, want 2 (stop after the stopping event)", ran)
	}
	// Stop is first-error-wins and sticky.
	e.Stop(errors.New("later"))
	if !errors.Is(e.Err(), boom) {
		t.Fatalf("Err() = %v, want the first error", e.Err())
	}
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("re-Run() = %v, want sticky boom", err)
	}
}

func TestRunUntilObservesStop(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.At(1, func() { e.Stop(boom) })
	e.At(2, func() { t.Error("event after Stop ran") })
	if err := e.RunUntil(10); !errors.Is(err, boom) {
		t.Fatalf("RunUntil = %v, want boom", err)
	}
}

func TestCapturePanicWrapsAndPassesThrough(t *testing.T) {
	e := NewEngine()
	e.At(42*time.Microsecond, func() {})
	e.Run()
	ie := CapturePanic("exploded", e)
	if ie.At != 42*time.Microsecond || ie.Events != 1 {
		t.Errorf("captured position = (%v, %d), want (42us, 1)", ie.At, ie.Events)
	}
	if len(ie.Stack) == 0 {
		t.Error("no stack captured")
	}
	if ie.Error() == "" {
		t.Error("empty error text")
	}
	// An already-captured invariant passes through unchanged.
	if again := CapturePanic(ie, nil); again != ie {
		t.Error("CapturePanic re-wrapped an InvariantError")
	}
}

// TestEngineCancelBeforeSparseJump: a cancellation set between the last
// amortized poll and a far-future event must be observed before the clock
// takes the jump — the idle tail of a run (background scans minutes apart)
// must not outrun a cancellation by minutes of simulated time.
func TestEngineCancelBeforeSparseJump(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	e.At(Time(time.Millisecond), func() {})               // resets the poll horizon
	e.At(Time(3*time.Millisecond)/2, func() { cancel() }) // inside the horizon: not polled here
	e.At(Time(time.Hour), func() { t.Error("event an hour out ran after cancellation") })
	if err := e.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if e.Now() > Time(2*time.Millisecond) {
		t.Errorf("clock advanced to %v; the sparse jump outran the cancellation", e.Now())
	}
}

// TestEngineCancelJumpWaitsForLane: same-instant lane work never counts as a
// jump, so events queued on the lane when a callback cancels still run at
// the current instant; the poll before the next clock jump then catches
// the cancellation before a far-future event runs.
func TestEngineCancelJumpWaitsForLane(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	ran := 0
	e.At(Time(time.Millisecond), func() {}) // resets the poll horizon
	e.At(Time(3*time.Millisecond)/2, func() {
		e.After(0, func() { ran++; cancel() })
		e.After(0, func() { ran++ })
	})
	e.At(Time(time.Hour), func() { t.Error("event an hour out ran after cancellation") })
	if err := e.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran != 2 {
		t.Errorf("ran %d lane events, want 2: same-instant work is not a jump", ran)
	}
	if e.Now() != Time(3*time.Millisecond)/2 || e.Pending() != 1 {
		t.Errorf("now=%v pending=%d, want the clock at 1.5ms with the far event queued", e.Now(), e.Pending())
	}
}
