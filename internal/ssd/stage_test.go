package ssd

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"idaflash/internal/faults"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// underProcs runs f with GOMAXPROCS set to n, and replays of any length
// allowed to pipeline, and returns how many timed replays ran their FTL
// stage on its own goroutine meanwhile. GOMAXPROCS 1 leaves no spare CPU,
// so every replay under it runs inline.
func underProcs(n int, f func()) uint64 {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	defer func(min int) { minPipelined = min }(minPipelined)
	minPipelined = 1
	before := PipelinedReplays()
	f()
	return PipelinedReplays() - before
}

// runPhases runs a measured trace and a RunMore follow-up on dev and
// returns both phases' results.
func runPhases(t *testing.T, dev *SSD) [2]Results {
	t.Helper()
	first, err := dev.Run(testTrace(t, "phase1", 3000, 0.7), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := dev.RunMore(testTrace(t, "phase2", 800, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	return [2]Results{first.Scalars(), second.Scalars()}
}

// TestPipelinedMatchesInline: a replay whose FTL stage runs on its own
// goroutine gives the inline replay's results, RunMore included, on a
// fresh device and on one reset for reuse. Fault injection and telemetry
// read device state mid-run, so their replays stay inline.
func TestPipelinedMatchesInline(t *testing.T) {
	withFaults := testConfig(true, 0.2)
	withFaults.Faults = faultScenario([]faults.Outage{{Device: 0, Unit: 1, After: faults.Duration(time.Millisecond), For: faults.Duration(5 * time.Millisecond)}})
	cases := []struct {
		name      string
		cfg       Config
		pipelines bool
	}{
		{"baseline", testConfig(false, 0), true},
		{"ida", testConfig(true, 0.2), true},
		{"faults", withFaults, false},
		{"telemetry", telemetryConfig(true), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var inline, piped, reused [2]Results
			if n := underProcs(1, func() { inline = runPhases(t, mustNew(t, c.cfg)) }); n != 0 {
				t.Fatalf("%d replays pipelined under GOMAXPROCS 1", n)
			}
			want := uint64(0)
			if c.pipelines {
				want = 2
			}
			if n := underProcs(2, func() { piped = runPhases(t, mustNew(t, c.cfg)) }); n != want {
				t.Fatalf("%d replays pipelined under GOMAXPROCS 2, want %d", n, want)
			}
			// A device that ran another configuration, reset for this one.
			dev := mustNew(t, testConfig(c.name == "baseline", 0.4))
			if _, err := dev.Run(testTrace(t, "other", 1500, 0.5), RunOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := dev.Reset(c.cfg); err != nil {
				t.Fatal(err)
			}
			underProcs(2, func() { reused = runPhases(t, dev) })
			for i := range inline {
				if piped[i] != inline[i] {
					t.Errorf("phase %d: pipelined results differ from inline:\n%+v\n%+v", i+1, piped[i], inline[i])
				}
				if reused[i] != inline[i] {
					t.Errorf("phase %d: results on a reset device differ from a fresh one:\n%+v\n%+v", i+1, reused[i], inline[i])
				}
			}
		})
	}
}

func mustNew(t *testing.T, cfg Config) *SSD {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// failingPrograms is an FTL fault model that fails every program from the
// after-th on, or panics there when panics is set: the first drives the
// FTL out of space mid-run, the second stands for a corrupted FTL.
type failingPrograms struct {
	after, calls int
	panics       bool
}

func (m *failingPrograms) ProgramFails(flash.PageAddr, int) bool {
	m.calls++
	if m.calls < m.after {
		return false
	}
	if m.panics {
		panic("injected FTL corruption")
	}
	return true
}

func (m *failingPrograms) EraseFails(flash.BlockAddr, int) bool { return false }

// untimedPrograms counts the programs a run makes before its timed phase.
func untimedPrograms(t *testing.T) (calls int) {
	t.Helper()
	cfg := testConfig(true, 0.2)
	m := &failingPrograms{after: 1 << 62}
	cfg.FTL.Faults = m
	s := mustNew(t, cfg)
	// The engine's first event, ahead of the first arrival; inline, so
	// the count is read on the goroutine making the calls.
	s.engine.After(0, func() { calls = m.calls })
	underProcs(1, func() {
		if _, err := s.Run(testTrace(t, "ftl-fault", 2000, 0.5), RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	return calls
}

// TestPipelinedFTLFailures: an FTL error or panic in the stage reaches the
// timing side at its place in the stream. A failed run returns the inline
// run's error and partial results; a panic surfaces as the inline run's
// *sim.InvariantError, at the same engine position.
func TestPipelinedFTLFailures(t *testing.T) {
	after := untimedPrograms(t) + 300
	run := func(panics bool) (Results, error) {
		cfg := testConfig(true, 0.2)
		cfg.FTL.Faults = &failingPrograms{after: after, panics: panics}
		res, err := mustNew(t, cfg).Run(testTrace(t, "ftl-fault", 2000, 0.5), RunOptions{})
		return res.Scalars(), err
	}
	var inRes, pipeRes Results
	var inErr, pipeErr error
	underProcs(1, func() { inRes, inErr = run(false) })
	if n := underProcs(2, func() { pipeRes, pipeErr = run(false) }); n != 1 {
		t.Fatalf("%d replays pipelined, want 1", n)
	}
	if inErr == nil || pipeErr == nil || inErr.Error() != pipeErr.Error() {
		t.Fatalf("failed run errors: inline %v, pipelined %v", inErr, pipeErr)
	}
	if pipeRes != inRes {
		t.Errorf("failed run's partial results differ:\n%+v\n%+v", pipeRes, inRes)
	}

	underProcs(1, func() { _, inErr = run(true) })
	underProcs(2, func() { _, pipeErr = run(true) })
	var inIE, pipeIE *sim.InvariantError
	if !errors.As(inErr, &inIE) || !errors.As(pipeErr, &pipeIE) {
		t.Fatalf("panicking runs: inline %v (%T), pipelined %v (%T), want *sim.InvariantError", inErr, inErr, pipeErr, pipeErr)
	}
	if pipeIE.Value != inIE.Value || pipeIE.At != inIE.At || pipeIE.Events != inIE.Events {
		t.Errorf("pipelined invariant %v at %v after %d events; inline %v at %v after %d",
			pipeIE.Value, pipeIE.At, pipeIE.Events, inIE.Value, inIE.At, inIE.Events)
	}
	if len(pipeIE.Stack) == 0 {
		t.Error("the forwarded invariant carries no stack")
	}
}

// TestPipelinedCancelJoinsStage: a cancelled pipelined run returns only
// after its stage goroutine has stopped, and the device it leaves behind
// resets to a clean one.
func TestPipelinedCancelJoinsStage(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(true, 0.2)
	var fresh Results
	underProcs(1, func() { fresh = runPhases(t, mustNew(t, cfg))[0] })
	n := underProcs(2, func() {
		for i := 0; i < 3; i++ {
			s := mustNew(t, cfg)
			ctx, cancel := context.WithCancel(context.Background())
			s.engine.After(sim.Time(2*time.Millisecond), cancel)
			_, err := s.RunContext(ctx, testTrace(t, "phase1", 3000, 0.7), RunOptions{})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if _, err := s.RunMore(testTrace(t, "phase2", 800, 0.3)); err == nil {
				t.Error("RunMore continued a cancelled run")
			}
			if err := s.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			if got := runPhases(t, s)[0]; got != fresh {
				t.Errorf("run after a cancelled one differs from a fresh device's:\n%+v\n%+v", got, fresh)
			}
		}
	})
	if n < 3 {
		t.Fatalf("%d replays pipelined, want at least the 3 cancelled ones", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after the cancelled runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpareCPURule: a replay pipelines only while a CPU is spare. One that
// starts while another run keeps the second CPU busy stays inline, and a
// pipelined one whose spare CPU another run takes mid-replay hands the
// rest of its walk to the timing goroutine; both give the inline results.
func TestSpareCPURule(t *testing.T) {
	cfg := testConfig(true, 0.2)
	// run runs both phases with an event a sixth into the first replay,
	// where another run starts if starts is set; the second replay starts
	// beside it.
	run := func(starts bool) [2]Results {
		s := mustNew(t, cfg)
		s.engine.After(sim.Time(10*time.Minute), func() {
			if starts {
				busy.Add(1)
			}
		})
		if starts {
			defer busy.Add(-1)
		}
		return runPhases(t, s)
	}
	var inline [2]Results
	underProcs(1, func() { inline = run(false) })

	busy.Add(1) // another run
	var crowded [2]Results
	n := underProcs(2, func() { crowded = run(false) })
	busy.Add(-1)
	if n != 0 {
		t.Errorf("%d replays pipelined beside another run on two CPUs", n)
	}

	handed := handedBack.Load()
	var taken [2]Results
	n = underProcs(2, func() { taken = run(true) })
	if n != 1 || handedBack.Load()-handed != 1 {
		t.Errorf("%d replays pipelined and %d handed back, want 1 and 1", n, handedBack.Load()-handed)
	}
	for i := range inline {
		if crowded[i] != inline[i] {
			t.Errorf("phase %d: results beside another run differ from inline:\n%+v\n%+v", i+1, crowded[i], inline[i])
		}
		if taken[i] != inline[i] {
			t.Errorf("phase %d: results of a handed-back replay differ from inline:\n%+v\n%+v", i+1, taken[i], inline[i])
		}
	}
}
