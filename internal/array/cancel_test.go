package array

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"idaflash/internal/sim"
	"idaflash/internal/ssd"
)

func fourDeviceArray(t *testing.T) *Array {
	t.Helper()
	a, err := New(Config{Devices: 4, StripeKB: 64, Device: deviceConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestArrayRunContextCancelMidRun cancels a 4-device run at a simulated
// instant on one member and expects every member to stop within the engine
// polling bounds, with the caller seeing its own context error and the
// merged partial stats.
func TestArrayRunContextCancelMidRun(t *testing.T) {
	a := fourDeviceArray(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = sim.Time(2 * time.Millisecond)
	a.Device(0).Engine().After(cancelAt, cancel)

	res, err := a.RunContext(ctx, parallelTrace("arr-cancel", 2000), ssd.RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Only device 0's clock relates deterministically to the cancel
	// instant (the siblings run their own timelines at wall speed and may
	// be anywhere when the cancellation lands); it must stop within the
	// 10ms simulated bound.
	if now := a.Device(0).Engine().Now(); now > cancelAt+sim.Time(10*time.Millisecond) {
		t.Errorf("device 0 ran to %v, more than 10ms of simulated time past the cancel at %v", now, cancelAt)
	}
	// Every sibling engine stopped: cancelled mid-run or fully drained.
	for d := 0; d < len(a.devs); d++ {
		eng := a.Device(d).Engine()
		if eng.Err() == nil && eng.Pending() > 0 {
			t.Errorf("device %d still has %d events queued with no stop error", d, eng.Pending())
		}
	}
	if len(res.PerDevice) != 4 {
		t.Fatalf("partial results carry %d devices, want 4", len(res.PerDevice))
	}
	if res.Combined.Trace != "arr-cancel" {
		t.Errorf("merged partial results lost the trace name: %q", res.Combined.Trace)
	}
}

// TestArrayRunContextDeadline runs a 4-device array under an
// already-expired wall-clock deadline.
func TestArrayRunContextDeadline(t *testing.T) {
	a := fourDeviceArray(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := a.RunContext(ctx, parallelTrace("arr-deadline", 4000), ssd.RunOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestArrayInvariantDoesNotKillSiblings injects a panic into one member's
// engine. The panic must come back as a typed *sim.InvariantError naming the
// failing device — not kill the process (device goroutine panics would, were
// they not contained inside ssd.RunContext) and not be masked by the sibling
// cancellations it triggers.
func TestArrayInvariantDoesNotKillSiblings(t *testing.T) {
	a := fourDeviceArray(t)
	const at = sim.Time(2 * time.Millisecond)
	a.Device(2).Engine().After(at, func() { panic("injected corruption") })

	res, err := a.RunContext(context.Background(), parallelTrace("arr-invariant", 2000), ssd.RunOptions{})
	var ie *sim.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *sim.InvariantError", err, err)
	}
	if ie.At != at {
		t.Errorf("InvariantError.At = %v, want %v", ie.At, at)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("the member's own failure was reported as a sibling cancellation")
	}
	// The panicking device stopped exactly at the injected event.
	if now := a.Device(2).Engine().Now(); now != at {
		t.Errorf("device 2 stopped at %v, want the injection point %v", now, at)
	}
	// The siblings were cancelled, not abandoned: their partial stats are
	// in the merged result and their engines are stopped or drained.
	if len(res.PerDevice) != 4 {
		t.Fatalf("partial results carry %d devices, want 4", len(res.PerDevice))
	}
	for d := 0; d < len(a.devs); d++ {
		eng := a.Device(d).Engine()
		if d != 2 && eng.Err() == nil && eng.Pending() > 0 {
			t.Errorf("device %d still has %d events queued with no stop error", d, eng.Pending())
		}
	}
}

// TestArrayCancelLeaksNoGoroutines pins the unwind: after cancelled array
// runs every device goroutine has exited. (goleak is unavailable, so this
// polls the runtime's goroutine count against the pre-test baseline.)
func TestArrayCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		a := fourDeviceArray(t)
		ctx, cancel := context.WithCancel(context.Background())
		a.Device(0).Engine().After(sim.Time(time.Millisecond), cancel)
		if _, err := a.RunContext(ctx, parallelTrace("arr-leak", 2000), ssd.RunOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d two seconds after cancelled runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
