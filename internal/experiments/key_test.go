package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"idaflash"
	"idaflash/internal/workload"
)

// TestKeyStableUnderDefaultFilling: a sparse profile and its normalized
// (default-filled) form must share one key, so a client that names only the
// base workload fields hits the same cache line as the experiment harness
// that runs pre-normalized profiles.
func TestKeyStableUnderDefaultFilling(t *testing.T) {
	sparse := workload.Profile{Name: "sparse", ReadRatio: 0.7, MeanReadKB: 16, ReadDataRatio: 0.6, TargetInvalidMSB: 0.3}
	normalized, err := sparse.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if normalized == sparse {
		t.Fatal("Normalize filled nothing; the test no longer exercises default-filling")
	}
	sys := idaflash.IDA(0.2)
	k1, err := Key(sparse, sys)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(normalized, sys)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("sparse and normalized profiles key differently:\n%s\n%s", k1, k2)
	}
}

// TestKeyStableUnderFieldReordering: the same system arriving as wire JSON
// with its fields in different orders keys identically — the struct
// round-trip canonicalizes member order before the key is built.
func TestKeyStableUnderFieldReordering(t *testing.T) {
	profile, err := workload.ProfileByName("usr_1", 5000)
	if err != nil {
		t.Fatal(err)
	}
	var sysA, sysB idaflash.System
	if err := json.Unmarshal([]byte(`{"IDA":true,"ErrorRate":0.2,"BitsPerCell":3,"Name":"IDA-E20"}`), &sysA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"Name":"IDA-E20","BitsPerCell":3,"ErrorRate":0.2,"IDA":true}`), &sysB); err != nil {
		t.Fatal(err)
	}
	kA, err := Key(profile, sysA)
	if err != nil {
		t.Fatal(err)
	}
	kB, err := Key(profile, sysB)
	if err != nil {
		t.Fatal(err)
	}
	if kA != kB {
		t.Errorf("reordered wire JSON keys differently:\n%s\n%s", kA, kB)
	}
}

// TestKeyDistinguishesConfigurations: the key must be lossless — any field
// that changes the simulation changes the key.
func TestKeyDistinguishesConfigurations(t *testing.T) {
	profile, err := workload.ProfileByName("usr_1", 5000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, sys := range []idaflash.System{
		idaflash.Baseline(),
		idaflash.IDA(0.2),
		idaflash.IDA(0.21),
		{Name: "IDA-E20-randio", IDA: true, ErrorRate: 0.2, Coding: idaflash.CodingRandIO},
		{Name: "arr", Devices: 4},
	} {
		k, err := Key(profile, sys)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("systems %q and %q collide on one key", prev, sys.Name)
		}
		seen[k] = sys.Name
	}
}

// TestKeyCanonicalizesDefaultSpellings: a system that leaves Coding and
// Scheduler empty runs exactly the simulation of one that names their
// defaults, so both share one key. The explicit spelling is the one the
// server builds for /v1/run, the empty one what a named sweep sends.
func TestKeyCanonicalizesDefaultSpellings(t *testing.T) {
	profile, err := workload.ProfileByName("usr_1", 5000)
	if err != nil {
		t.Fatal(err)
	}
	kEmpty, err := Key(profile, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	spelled := idaflash.IDA(0.2)
	for _, spell := range []func(*idaflash.System){
		func(s *idaflash.System) { s.Coding = idaflash.CodingIDA },
		func(s *idaflash.System) { s.Scheduler = idaflash.SchedReadFirst },
		func(s *idaflash.System) { s.BitsPerCell = 3 },
		func(s *idaflash.System) { s.Devices = 1 },
	} {
		spell(&spelled)
		kSpelled, err := Key(profile, spelled)
		if err != nil {
			t.Fatal(err)
		}
		if kEmpty != kSpelled {
			t.Errorf("default spellings key differently:\n%s\n%s", kEmpty, kSpelled)
		}
	}
	other := spelled
	other.Scheduler = idaflash.SchedFIFO
	if kOther, _ := Key(profile, other); kOther == kEmpty {
		t.Error("a non-default scheduler shares the default's key")
	}
}

// TestKeyToleratesInvalidProfiles: a profile that fails normalization is
// keyed in its raw form rather than rejected — memoization must not depend
// on validity (the run itself reports the real error), and the runner's
// singleflight relies on every (profile, system) pair being keyable.
func TestKeyToleratesInvalidProfiles(t *testing.T) {
	stubA := workload.Profile{Name: "stub-a", Requests: 10}
	stubB := workload.Profile{Name: "stub-b", Requests: 10}
	if _, err := stubA.Normalize(); err == nil {
		t.Fatal("stub normalized cleanly; the test no longer exercises the fallback")
	}
	sys := idaflash.System{Name: "S"}
	kA, err := Key(stubA, sys)
	if err != nil {
		t.Fatalf("invalid profile was rejected: %v", err)
	}
	kB, err := Key(stubB, sys)
	if err != nil {
		t.Fatalf("invalid profile was rejected: %v", err)
	}
	if kA == kB {
		t.Error("distinct invalid profiles collide on one key")
	}
}

// TestKeyCarriesVersion: the schema version is part of every key, so a
// KeyVersion bump re-addresses the whole store and stale disk entries read
// as misses.
func TestKeyCarriesVersion(t *testing.T) {
	profile, err := workload.ProfileByName("usr_1", 5000)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Key(profile, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct{ V int }
	if err := json.Unmarshal([]byte(k), &decoded); err != nil {
		t.Fatalf("key is not JSON: %v", err)
	}
	if decoded.V != KeyVersion {
		t.Errorf("key carries version %d, want %d", decoded.V, KeyVersion)
	}
	if !strings.Contains(k, `"usr_1"`) {
		t.Errorf("key does not name its profile: %s", k)
	}
}

// TestSweepEnumeratesExperimentPoints: the named sweeps cover every (paper
// profile x system) pair their experiment counterparts run, with distinct
// keys per point.
func TestSweepEnumeratesExperimentPoints(t *testing.T) {
	cases := map[string]int{
		"figure8":     11 * (1 + 9), // baseline + 9 error rates
		"sensitivity": 11 * (2 * 5), // (baseline, ida) x 5 delta-tRs
		"cmp":         11 * 3,       // three registered codings
	}
	for name, want := range cases {
		points, err := Sweep(name, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != want {
			t.Errorf("sweep %s: %d points, want %d", name, len(points), want)
		}
		keys := map[string]bool{}
		for _, pt := range points {
			k, err := Key(pt.Profile, pt.System)
			if err != nil {
				t.Fatalf("sweep %s: %v", name, err)
			}
			if keys[k] {
				t.Errorf("sweep %s: duplicate point key %s", name, k)
			}
			keys[k] = true
		}
	}
	if _, err := Sweep("no-such-sweep", 5000); err == nil {
		t.Error("unknown sweep accepted")
	}
	names := SweepNames()
	if len(names) != 3 || names[0] != "cmp" {
		t.Errorf("SweepNames = %v", names)
	}
}
