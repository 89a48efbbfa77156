package idaflash_test

import (
	"runtime"
	"testing"

	"idaflash"
)

// underProcs runs f with GOMAXPROCS set to n.
func underProcs(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// arrayScalars is an array run's combined and per-device scalars.
func arrayScalars(res idaflash.ArrayResults) []idaflash.Results {
	out := []idaflash.Results{res.Combined.Scalars()}
	for _, d := range res.PerDevice {
		out = append(out, d.Scalars())
	}
	return out
}

// TestPipelinedArraysMatchInline: single devices, striped arrays and parity
// arrays give the same results whether their members' FTL stages run inline
// (GOMAXPROCS 1 leaves no CPU spare) or each on its own goroutine
// (GOMAXPROCS 8 leaves one for every stage of a 4-device array; the ssd
// package's tests check that a replay with a CPU spare pipelines), on fresh
// devices, on devices restored from a snapshot, and on devices reused from
// the arena. Each layout's profile is long enough for every device's
// replay to pipeline: each has more than 4,096 requests to measure.
func TestPipelinedArraysMatchInline(t *testing.T) {
	layouts := []struct {
		name     string
		devices  int
		parity   bool
		requests int
	}{
		{"single", 1, false, 6000},
		{"striped", 4, false, 30000},
		{"parity", 4, true, 30000},
	}
	paths := []struct {
		name  string
		setup func(t *testing.T, p idaflash.Profile, sys *idaflash.System)
	}{
		{"fresh", func(t *testing.T, p idaflash.Profile, sys *idaflash.System) { sys.NoSnapshot, sys.NoPool = true, true }},
		{"restored", func(t *testing.T, p idaflash.Profile, sys *idaflash.System) {
			withFreshSnapshotStore(t)
			sys.NoPool = true
			if _, err := idaflash.RunArrayWorkload(p, *sys); err != nil { // captures
				t.Fatal(err)
			}
		}},
		{"pooled", func(t *testing.T, p idaflash.Profile, sys *idaflash.System) {
			withFreshArena(t)
			sys.NoSnapshot = true
			if _, err := idaflash.RunArrayWorkload(p, *sys); err != nil { // parks the devices
				t.Fatal(err)
			}
		}},
	}
	for _, l := range layouts {
		p, err := idaflash.ProfileByName("hm_1", l.requests)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			t.Run(l.name+"/"+path.name, func(t *testing.T) {
				sys := idaflash.IDA(0.2)
				sys.Devices, sys.Parity = l.devices, l.parity
				path.setup(t, p, &sys)
				var inline, piped idaflash.ArrayResults
				var inErr, pipeErr error
				underProcs(1, func() { inline, inErr = idaflash.RunArrayWorkload(p, sys) })
				underProcs(8, func() { piped, pipeErr = idaflash.RunArrayWorkload(p, sys) })
				if inErr != nil || pipeErr != nil {
					t.Fatalf("inline: %v; pipelined: %v", inErr, pipeErr)
				}
				want, got := arrayScalars(inline), arrayScalars(piped)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("results %d differ:\npipelined %+v\ninline    %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
