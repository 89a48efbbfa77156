package idaflash_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/runpool"
)

// withFreshArena swaps the process-wide device arena for an empty one so a
// test observes its own hit/miss transitions, restoring the shared arena
// afterwards.
func withFreshArena(t testing.TB) *runpool.Arena {
	t.Helper()
	old := idaflash.DefaultArena
	fresh := runpool.New()
	idaflash.DefaultArena = fresh
	t.Cleanup(func() { idaflash.DefaultArena = old })
	return fresh
}

// arenaCases is the pool of (profile, system) points the reuse tests
// interleave: different workloads, codings, all three schedulers, IDA
// settings, a fault scenario, and telemetry. Points sharing a device geometry share pooled devices, so
// a checkout routinely reuses a device that last ran a *different*
// configuration — the state-bleed scenario pooling must survive.
func arenaCases(t testing.TB) []struct {
	name    string
	profile idaflash.Profile
	sys     idaflash.System
} {
	t.Helper()
	profile := func(name string) idaflash.Profile {
		p, err := idaflash.ProfileByName(name, 1200)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wearout, err := idaflash.LoadFaultScenario("examples/faults/wearout.json")
	if err != nil {
		t.Fatal(err)
	}
	alter := func(sys idaflash.System, f func(*idaflash.System)) idaflash.System {
		f(&sys)
		return sys
	}
	return []struct {
		name    string
		profile idaflash.Profile
		sys     idaflash.System
	}{
		{"baseline-hm", profile("hm_1"), idaflash.Baseline()},
		{"ida-hm", profile("hm_1"), idaflash.IDA(0.2)},
		{"ida-usr", profile("usr_1"), idaflash.IDA(0.4)},
		{"randio", profile("hm_1"), alter(idaflash.Baseline(), func(s *idaflash.System) {
			s.Coding = idaflash.CodingRandIO
		})},
		{"ilwc-fifo", profile("hm_1"), alter(idaflash.Baseline(), func(s *idaflash.System) {
			s.Coding = idaflash.CodingILWC
			s.Scheduler = "fifo"
		})},
		{"faults", profile("usr_1"), alter(idaflash.IDA(0.2), func(s *idaflash.System) {
			s.Faults = wearout
		})},
		{"age-aware", profile("hm_1"), alter(idaflash.IDA(0.2), func(s *idaflash.System) {
			s.Scheduler = idaflash.SchedAgeAware
		})},
		// A Figure 9 point: a pooled device reset across a timing change
		// must rebuild its read-latency table.
		{"fig9-delta30", profile("hm_1"), alter(idaflash.IDA(0.2), func(s *idaflash.System) {
			s.DeltaTR = 30 * time.Microsecond
		})},
		// Coarse sampling keeps the exports small; every request's span
		// would write tens of MB per run.
		{"telemetry", profile("hm_1"), alter(idaflash.IDA(0.2), func(s *idaflash.System) {
			s.Telemetry = &idaflash.TelemetryConfig{SampleEvery: 64, MetricsInterval: 10 * time.Second}
		})},
	}
}

// outcome is what the reuse gates compare between a pooled and a fresh
// run: the scalar results and, with telemetry on, the exported trace and
// time-series bytes, which Scalars drops.
type outcome struct {
	scalars idaflash.Results
	exports string
}

func outcomeOf(t testing.TB, res idaflash.Results) outcome {
	t.Helper()
	o := outcome{scalars: res.Scalars()}
	if res.Telemetry != nil {
		var b bytes.Buffer
		if err := res.Telemetry.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		if err := res.Telemetry.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		o.exports = b.String()
	}
	return o
}

// diverged describes how a pooled outcome differs from the fresh one, or
// returns "" when they match.
func (o outcome) diverged(fresh outcome) string {
	switch {
	case o.scalars != fresh.scalars:
		return fmt.Sprintf("pooled run diverged from fresh device:\nfresh  %+v\npooled %+v", fresh.scalars, o.scalars)
	case o.exports != fresh.exports:
		return fmt.Sprintf("pooled telemetry exports (%d bytes) differ from fresh device's (%d bytes)", len(o.exports), len(fresh.exports))
	}
	return ""
}

// TestArenaReuseInterleaved is the state-bleed gate for device pooling: it
// interleaves runs of different profiles, codings, schedulers, and fault
// scenarios on the shared arena, in a seeded-random order over several
// rounds, and requires every pooled run to match the fresh-device (NoPool)
// reference scalar for scalar.
func TestArenaReuseInterleaved(t *testing.T) {
	cases := arenaCases(t)
	arena := withFreshArena(t)

	// Fresh-device references, outside the arena.
	want := make([]outcome, len(cases))
	for i, tc := range cases {
		sys := tc.sys
		sys.NoPool = true
		res, err := idaflash.RunWorkload(tc.profile, sys)
		if err != nil {
			t.Fatalf("%s (fresh): %v", tc.name, err)
		}
		want[i] = outcomeOf(t, res)
	}
	if got := arena.Stats(); got.Hits != 0 || got.Returns != 0 {
		t.Fatalf("NoPool runs touched the arena: %+v", got)
	}

	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 3; round++ {
		order := rng.Perm(len(cases))
		for _, i := range order {
			tc := cases[i]
			res, err := idaflash.RunWorkload(tc.profile, tc.sys)
			if err != nil {
				t.Fatalf("round %d %s (pooled): %v", round, tc.name, err)
			}
			if d := outcomeOf(t, res).diverged(want[i]); d != "" {
				t.Errorf("round %d %s: %s", round, tc.name, d)
			}
		}
	}
	st := arena.Stats()
	if st.Hits == 0 {
		t.Fatalf("interleaved rounds never reused a device: %+v", st)
	}
	if st.Returns == 0 {
		t.Fatalf("clean runs never returned a device: %+v", st)
	}
}

// TestArenaReuseArray checks pooling across the array path: member devices
// are checked out of and released back into the shared arena, and pooled
// array runs match fresh-device ones merged and per device.
func TestArenaReuseArray(t *testing.T) {
	p, err := idaflash.ProfileByName("hm_1", 1200)
	if err != nil {
		t.Fatal(err)
	}
	sys := idaflash.IDA(0.2)
	sys.Devices = 4
	arena := withFreshArena(t)

	fresh := sys
	fresh.NoPool = true
	want, err := idaflash.RunArrayWorkload(p, fresh)
	if err != nil {
		t.Fatal(err)
	}
	// Two pooled runs: the first parks four devices, the second reuses them.
	for round := 0; round < 2; round++ {
		got, err := idaflash.RunArrayWorkload(p, sys)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Combined.Scalars() != want.Combined.Scalars() {
			t.Errorf("round %d: pooled combined results diverged from fresh", round)
		}
		for d := range got.PerDevice {
			if got.PerDevice[d].Scalars() != want.PerDevice[d].Scalars() {
				t.Errorf("round %d: pooled device %d diverged from fresh", round, d)
			}
		}
	}
	st := arena.Stats()
	if st.Returns < uint64(2*sys.Devices) || st.Hits < uint64(sys.Devices) {
		t.Fatalf("array runs did not cycle member devices through the arena: %+v", st)
	}
}

// FuzzArenaReuse drives arbitrary interleavings of the case pool through
// one arena: each input byte picks the next configuration to run on a
// pooled device, and every run must match its fresh-device reference. The
// seed corpus covers repeats, round-trips, and alternations; the fuzzer
// explores orderings beyond them.
func FuzzArenaReuse(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{5, 5})
	f.Add([]byte{3, 1, 3, 1})
	f.Add([]byte{2, 4, 0, 5, 1, 3})
	f.Add([]byte{6, 4, 6, 7, 1, 7})
	f.Add([]byte{7, 7})

	cases := arenaCases(f)
	// One shared reference table and one long-lived arena across fuzz
	// executions: later executions reuse devices parked by earlier ones,
	// which is exactly the exposure the fuzz is after.
	old := idaflash.DefaultArena
	idaflash.DefaultArena = runpool.New()
	f.Cleanup(func() { idaflash.DefaultArena = old })
	want := make([]outcome, len(cases))
	for i, tc := range cases {
		sys := tc.sys
		sys.NoPool = true
		res, err := idaflash.RunWorkload(tc.profile, sys)
		if err != nil {
			f.Fatalf("%s (fresh): %v", tc.name, err)
		}
		want[i] = outcomeOf(f, res)
	}

	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) > 8 {
			seq = seq[:8] // bound the per-input simulation budget
		}
		for step, b := range seq {
			i := int(b) % len(cases)
			tc := cases[i]
			res, err := idaflash.RunWorkload(tc.profile, tc.sys)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, tc.name, err)
			}
			if d := outcomeOf(t, res).diverged(want[i]); d != "" {
				t.Fatalf("step %d %s: %s", step, tc.name, d)
			}
		}
	})
}
