package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"idaflash"
	"idaflash/internal/workload"
)

// TestCancelledRunLeavesNoPartialResult is the memo-integrity gate: a sweep
// cancelled mid-run must purge its cache entry, so an identical rerun
// re-executes and produces byte-identical results to a runner that was
// never interrupted. A partial result leaking through the memo would make
// "cancel, then retry" silently corrupt every downstream figure.
func TestCancelledRunLeavesNoPartialResult(t *testing.T) {
	p, err := workload.ProfileByName("proj_3", 4000)
	if err != nil {
		t.Fatal(err)
	}
	sys := idaflash.IDA(0.2)

	// A cancelled context is the deterministic way to interrupt on any
	// machine (a wall-clock deadline shorter than the run may never be
	// delivered on a single-CPU box before the CPU-bound run completes);
	// the run still installs its memo entry first, so the purge path is
	// exercised exactly as in a mid-run cancel.
	interrupted := NewRunner(Options{Requests: 4000, Parallel: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := interrupted.RunContext(ctx, p, sys); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// The rerun on the same runner must re-execute from scratch...
	rerun, err := interrupted.RunContext(context.Background(), p, sys)
	if err != nil {
		t.Fatal(err)
	}
	// ...and match a never-interrupted runner byte for byte.
	fresh, err := NewRunner(Options{Requests: 4000, Parallel: 2}).Run(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(rerun)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("rerun after cancellation diverged from an uninterrupted run:\n%s\nvs\n%s", a, b)
	}
}

// TestWaiterCancelDoesNotDisturbExecutor: a waiter that gives up on a
// singleflight entry must get its own context error while the executing run
// completes and is cached normally.
func TestWaiterCancelDoesNotDisturbExecutor(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	runs := 0
	r := NewRunner(Options{Requests: 10, Parallel: 2})
	r.run = func(ctx context.Context, p workload.Profile, sys idaflash.System) (idaflash.Results, error) {
		runs++
		close(started)
		<-block
		return idaflash.Results{Trace: p.Name}, nil
	}
	p := workload.Profile{Name: "w", Requests: 10}
	sys := idaflash.System{Name: "S"}

	execDone := make(chan error, 1)
	go func() {
		_, err := r.RunContext(context.Background(), p, sys)
		execDone <- err
	}()
	<-started // the executor holds the key's claim
	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := r.RunContext(wctx, p, sys)
		waiterDone <- err
	}()
	wcancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(block)
	if err := <-execDone; err != nil {
		t.Fatalf("executor err = %v", err)
	}
	if runs != 1 {
		t.Errorf("simulation ran %d times, want 1", runs)
	}
	// The completed result is cached: a third call must not re-execute.
	if _, err := r.Run(p, sys); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("cached result was not reused: %d runs", runs)
	}
}
