package sim

import (
	"testing"
	"time"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Microsecond, func() { got = append(got, 3) })
	e.At(10*time.Microsecond, func() { got = append(got, 1) })
	e.At(20*time.Microsecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if e.Now() != 30*time.Microsecond {
		t.Errorf("clock = %v, want 30us", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.At(0, func() {
		trace = append(trace, "a")
		e.After(5*time.Microsecond, func() {
			trace = append(trace, "c")
		})
	})
	e.At(2*time.Microsecond, func() { trace = append(trace, "b") })
	e.Run()
	want := "abc"
	s := ""
	for _, x := range trace {
		s += x
	}
	if s != want {
		t.Errorf("trace = %q, want %q", s, want)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Microsecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.At(5*time.Microsecond, func() {})
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

func TestPulseFiresOnIntervalBoundaries(t *testing.T) {
	e := NewEngine()
	// Work spread over 95us keeps the queue non-empty through nine ticks.
	for i := 1; i <= 19; i++ {
		e.At(time.Duration(i)*5*time.Microsecond, func() {})
	}
	var ticks []Time
	e.Pulse(10*time.Microsecond, func(now Time) { ticks = append(ticks, now) })
	e.Run()
	// Ticks at exactly 10, 20, ..., 100us; the 100us tick finds the
	// queue empty and stops the chain.
	if len(ticks) != 10 {
		t.Fatalf("ticks = %d (%v), want 10", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := time.Duration(i+1) * 10 * time.Microsecond; at != want {
			t.Errorf("tick %d at %v, want exact boundary %v", i, at, want)
		}
	}
}

func TestPulseStopsWhenQueueDrains(t *testing.T) {
	e := NewEngine()
	e.At(time.Microsecond, func() {})
	fired := 0
	e.Pulse(10*time.Microsecond, func(Time) { fired++ })
	e.Run()
	// The only pulse fires after the lone event, finds nothing pending,
	// and does not re-arm: Run terminates.
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Run", e.Pending())
	}
}

func TestPulseRejectsNonPositiveInterval(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero pulse interval should panic")
		}
	}()
	e.Pulse(0, func(Time) {})
}
