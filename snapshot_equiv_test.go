package idaflash_test

import (
	"testing"

	"idaflash"
	"idaflash/internal/snapshot"
)

// withFreshSnapshotStore swaps the process-wide snapshot store for an empty
// one so a test observes its own cold/warm transitions, restoring the shared
// store afterwards.
func withFreshSnapshotStore(t *testing.T) *snapshot.Store {
	t.Helper()
	old := idaflash.DefaultSnapshots
	fresh := snapshot.NewStore(0)
	idaflash.DefaultSnapshots = fresh
	t.Cleanup(func() { idaflash.DefaultSnapshots = old })
	return fresh
}

// TestSnapshotRunsMatchReplay is the facade-level equivalence gate: for every
// configuration class the snapshot path serves — single device, striped
// array, fault scenario (which exercises the injector stream fast-forward),
// and the non-default coding schemes — a run that replays its aging preamble
// (NoSnapshot), a cold run that captures the snapshot, and a warm run that
// restores it must produce identical measurements, scalar for scalar.
func TestSnapshotRunsMatchReplay(t *testing.T) {
	profile := func(name string) idaflash.Profile {
		p, err := idaflash.ProfileByName(name, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wearout, err := idaflash.LoadFaultScenario("examples/faults/wearout.json")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		profile idaflash.Profile
		sys     idaflash.System
	}{
		{"single-ida", profile("hm_1"), idaflash.IDA(0.2)},
		{"faults", profile("usr_1"), func() idaflash.System {
			sys := idaflash.IDA(0.2)
			sys.Faults = wearout
			return sys
		}()},
		{"randio", profile("hm_1"), func() idaflash.System {
			sys := idaflash.Baseline()
			sys.Coding = idaflash.CodingRandIO
			return sys
		}()},
		{"ilwc", profile("hm_1"), func() idaflash.System {
			sys := idaflash.Baseline()
			sys.Coding = idaflash.CodingILWC
			return sys
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := withFreshSnapshotStore(t)

			replaySys := tc.sys
			replaySys.NoSnapshot = true
			replay, err := idaflash.RunWorkload(tc.profile, replaySys)
			if err != nil {
				t.Fatal(err)
			}
			if store.Stats().Entries != 0 {
				t.Fatal("NoSnapshot run populated the snapshot store")
			}

			cold, err := idaflash.RunWorkload(tc.profile, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			if store.Stats().Entries == 0 {
				t.Fatal("cold run did not capture a snapshot")
			}
			warm, err := idaflash.RunWorkload(tc.profile, tc.sys)
			if err != nil {
				t.Fatal(err)
			}

			if cold.Scalars() != replay.Scalars() {
				t.Errorf("cold snapshot run diverged from replay:\nreplay %+v\ncold   %+v", replay.Scalars(), cold.Scalars())
			}
			if warm.Scalars() != replay.Scalars() {
				t.Errorf("warm (restored) run diverged from replay:\nreplay %+v\nwarm   %+v", replay.Scalars(), warm.Scalars())
			}
		})
	}
}

// TestSnapshotArrayRunsMatchReplay is the array variant of the gate: every
// member device has its own per-device snapshot key, and the merged and
// per-device results must match the replay path on cold and warm runs alike.
func TestSnapshotArrayRunsMatchReplay(t *testing.T) {
	p, err := idaflash.ProfileByName("hm_1", 1500)
	if err != nil {
		t.Fatal(err)
	}
	sys := idaflash.IDA(0.2)
	sys.Devices = 4

	store := withFreshSnapshotStore(t)

	replaySys := sys
	replaySys.NoSnapshot = true
	replay, err := idaflash.RunArrayWorkload(p, replaySys)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := idaflash.RunArrayWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Entries != sys.Devices {
		t.Fatalf("cold array run captured %d snapshots, want one per device (%d)", store.Stats().Entries, sys.Devices)
	}
	warm, err := idaflash.RunArrayWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string]idaflash.ArrayResults{"cold": cold, "warm": warm} {
		if got.Combined.Scalars() != replay.Combined.Scalars() {
			t.Errorf("%s combined results diverged from replay", name)
		}
		if len(got.PerDevice) != len(replay.PerDevice) {
			t.Fatalf("%s has %d per-device results, replay has %d", name, len(got.PerDevice), len(replay.PerDevice))
		}
		for d := range got.PerDevice {
			if got.PerDevice[d].Scalars() != replay.PerDevice[d].Scalars() {
				t.Errorf("%s device %d diverged from replay", name, d)
			}
		}
	}
}
