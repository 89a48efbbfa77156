package idaflash_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"idaflash"
)

var updateTelemetryDigests = flag.Bool("update-telemetry-digests", false, "rewrite testdata/telemetry_digests.json from the current code")

// telemetryDigest is the SHA-256 of one run's two telemetry exports: the
// -metrics-out CSV and the -trace-out trace-event JSON.
type telemetryDigest struct {
	Config string
	CSV    string
	Trace  string
}

// TestTelemetryDigests regenerates the telemetry exports of the four idasim
// configurations CI checks for determinism — "-workload usr_1 -requests
// 6000 -ida" on a single device, a 4-device array, the wear-out fault
// scenario, and a degraded parity array losing a die — in-process and
// compares their digests with testdata/telemetry_digests.json. The CI
// determinism job only compares two runs of the same commit; this pins the
// bytes across commits, so a change to how the sampler or span recorder
// counts shows up as a mismatch.
func TestTelemetryDigests(t *testing.T) {
	p, err := idaflash.ProfileByName("usr_1", 6000)
	if err != nil {
		t.Fatal(err)
	}
	system := func(devices int, parity bool, scenario string) idaflash.System {
		sys := idaflash.IDA(0.2)
		sys.BitsPerCell, sys.Devices, sys.Parity = 3, devices, parity
		sys.Telemetry = &idaflash.TelemetryConfig{SampleEvery: 1, MetricsInterval: 100 * time.Millisecond}
		if scenario != "" {
			if sys.Faults, err = idaflash.LoadFaultScenario(filepath.Join("examples", "faults", scenario)); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	configs := []struct {
		name string
		sys  idaflash.System
	}{
		{"single", system(1, false, "")},
		{"devices-4", system(4, false, "")},
		{"faults-wearout", system(1, false, "wearout.json")},
		{"parity-die-failure", system(4, true, "die-failure.json")},
	}
	var got []telemetryDigest
	for _, c := range configs {
		var res idaflash.Results
		if c.sys.Devices > 1 {
			ar, err := idaflash.RunArrayWorkload(p, c.sys)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			res = ar.Combined
		} else if res, err = idaflash.RunWorkload(p, c.sys); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		csv, trace := sha256.New(), sha256.New()
		if err := res.Telemetry.WriteCSV(csv); err != nil {
			t.Fatal(err)
		}
		if err := res.Telemetry.WriteTrace(trace); err != nil {
			t.Fatal(err)
		}
		got = append(got, telemetryDigest{
			Config: c.name,
			CSV:    hex.EncodeToString(csv.Sum(nil)),
			Trace:  hex.EncodeToString(trace.Sum(nil)),
		})
	}

	path := filepath.Join("testdata", "telemetry_digests.json")
	if *updateTelemetryDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading digests (run with -update-telemetry-digests to regenerate): %v", err)
	}
	var want []telemetryDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("telemetry exports diverged from the committed digests:\ngot  %+v\nwant %+v", got, want)
	}
}
