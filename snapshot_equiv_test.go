package idaflash_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"idaflash"
	"idaflash/internal/results"
	"idaflash/internal/snapshot"
)

// withFreshSnapshotStore swaps the process-wide snapshot store for an empty
// one so a test observes its own cold/warm transitions, restoring the shared
// store afterwards.
func withFreshSnapshotStore(t testing.TB) *snapshot.Store {
	t.Helper()
	old := idaflash.DefaultSnapshots
	fresh := snapshot.NewStore(0)
	idaflash.DefaultSnapshots = fresh
	t.Cleanup(func() { idaflash.DefaultSnapshots = old })
	return fresh
}

// agedState runs one IDA-E20 point of the named profile against a fresh
// snapshot store backed by a temporary blob directory, and returns the aged
// device state the run captured together with its encoded size.
func agedState(t testing.TB, name string, requests int) (*snapshot.DeviceState, int) {
	t.Helper()
	p, err := idaflash.ProfileByName(name, requests)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	disk, err := results.OpenDiskOptions(dir, results.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withFreshSnapshotStore(t).SetBlobs(disk.Sub(idaflash.ExtSnapshot))
	if _, err := idaflash.RunWorkload(p, idaflash.IDA(0.2)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+idaflash.ExtSnapshot))
	if err != nil || len(files) != 1 {
		t.Fatalf("%s@%d captured %d snapshots (%v), want 1", name, requests, len(files), err)
	}
	enc, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	return st, len(enc)
}

// TestAgedStateSize guards the size of an encoded aged-device snapshot. The
// snapshot store keeps up to 64 of them in memory, so their size is part of
// every process's resident memory; a change that widens the state again
// fails here instead of showing up as RSS. The limits sit above the 32-bit
// L2P, per-wordline, boundary-only layout (133,409 and 176,033 bytes) and
// below the 258,538 and 348,442 bytes of the 64-bit, per-page layout before
// it.
func TestAgedStateSize(t *testing.T) {
	for _, tc := range []struct {
		profile  string
		requests int
		limit    int
	}{{"hm_1", 10000, 150_000}, {"src1_0", 2500, 200_000}} {
		if _, size := agedState(t, tc.profile, tc.requests); size > tc.limit {
			t.Errorf("%s@%d: aged state encodes to %d bytes, limit %d", tc.profile, tc.requests, size, tc.limit)
		} else {
			t.Logf("%s@%d: aged state encodes to %d bytes", tc.profile, tc.requests, size)
		}
	}
}

// agedHM1Digest is the SHA-256 of snapshot.Encode's output for the aged
// IDA-E20 state of hm_1 at 2,500 requests. Encode is a pure function of the
// state, and the state a pure function of the configuration, so any change
// to these bytes is a format change: it needs a CodecVersion bump.
const agedHM1Digest = "a98aaa676a28d3e92dc891c381d2236198f97565ea608230742650beb73c2da3"

// TestAgedSnapshotBytes pins the encoded bytes of one aged device state, so
// a rewrite of the encoder must reproduce the format byte for byte.
func TestAgedSnapshotBytes(t *testing.T) {
	st, _ := agedState(t, "hm_1", 2500)
	enc, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != agedHM1Digest {
		t.Errorf("hm_1@2500 IDA-E20 snapshot: %d bytes with SHA-256 %x, want %s", len(enc), sum, agedHM1Digest)
	}
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
