package ssd

import (
	"context"
	"errors"
	"testing"
	"time"

	"idaflash/internal/faults"
	"idaflash/internal/sim"
)

// TestRunContextPreCancelled pins the cheapest exit: a context that is
// already dead must stop the run during the untimed phases, before the
// engine processes a single event.
func TestRunContextPreCancelled(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.RunContext(ctx, testTrace(t, "pre", 400, 0.8), RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.engine.Processed() != 0 {
		t.Errorf("engine processed %d events under a pre-cancelled context", s.engine.Processed())
	}
}

// TestRunContextCancelMidRun cancels at a known simulated instant — an
// injected engine event — and checks the acceptance bound: the engine stops
// within 10 ms of simulated progress past the cancellation, and the partial
// stats cover only the work done so far.
func TestRunContextCancelMidRun(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = sim.Time(2 * time.Millisecond)
	s.engine.After(cancelAt, cancel)

	res, err := s.RunContext(ctx, testTrace(t, "midrun", 2000, 0.8), RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	now := s.engine.Now()
	if now < cancelAt {
		t.Fatalf("engine stopped at %v, before the cancel event at %v", now, cancelAt)
	}
	if over := time.Duration(now - cancelAt); over > 10*time.Millisecond {
		t.Errorf("engine ran %v of simulated time past cancellation, want <= 10ms", over)
	}
	// Partial progress: the run started (some requests served) but did not
	// finish (a full run serves all measured requests).
	if res.Trace != "midrun" {
		t.Errorf("partial results lost the trace name: %q", res.Trace)
	}
	if res.ReadRequests+res.WriteRequests == 0 {
		t.Error("no requests completed before a 2ms-simulated cancel")
	}
	full, err := mustDevice(t).Run(testTrace(t, "midrun", 2000, 0.8), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.ReadRequests+res.WriteRequests, full.ReadRequests+full.WriteRequests; got >= want {
		t.Errorf("cancelled run completed %d requests, full run %d — cancellation did nothing", got, want)
	}
}

func mustDevice(t *testing.T) *SSD {
	t.Helper()
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunContextDeadline runs under an already-expired wall-clock deadline
// (the deterministic form on any machine — a short live timeout may not be
// delivered on a single-CPU box before a CPU-bound run completes) and
// expects DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := s.RunContext(ctx, testTrace(t, "deadline", 2000, 0.8), RunOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextCancelWithFaults cancels a fault-injection run mid-flight:
// the retry/timeout machinery must unwind cleanly under cancellation (this
// test is part of the -race suite).
func TestRunContextCancelWithFaults(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.Faults = faultScenario([]faults.Outage{{Device: 0, Unit: 0, After: 0}})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.engine.After(sim.Time(2*time.Millisecond), cancel)
	res, err := s.RunContext(ctx, testTrace(t, "faults-cancel", 2000, 0.8), RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Trace != "faults-cancel" {
		t.Errorf("partial results lost the trace name: %q", res.Trace)
	}
}

// TestRunContextInvariantContained injects a panic into the middle of the
// simulation and expects it back as a typed *sim.InvariantError — stamped
// with the engine position — instead of a dead process, with the partial
// stats still snapshotted.
func TestRunContextInvariantContained(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	const at = sim.Time(2 * time.Millisecond)
	s.engine.After(at, func() { panic("injected corruption") })

	res, err := s.RunContext(context.Background(), testTrace(t, "invariant", 2000, 0.8), RunOptions{})
	var ie *sim.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *sim.InvariantError", err, err)
	}
	if ie.At != at {
		t.Errorf("InvariantError.At = %v, want %v", ie.At, at)
	}
	if ie.Events == 0 {
		t.Error("InvariantError.Events = 0, want the engine's event count")
	}
	if len(ie.Stack) == 0 {
		t.Error("InvariantError carries no stack")
	}
	if res.Trace != "invariant" {
		t.Errorf("partial results lost the trace name: %q", res.Trace)
	}
}

// TestRunMoreContextCancel covers the follow-up phase: RunMore shares the
// cancellation plumbing with Run.
func TestRunMoreContextCancel(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(testTrace(t, "phase1", 400, 0.8), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.engine.After(2*time.Millisecond, cancel)
	if _, err := s.RunMoreContext(ctx, testTrace(t, "phase2", 2000, 0.5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
