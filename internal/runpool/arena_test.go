package runpool_test

import (
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/runpool"
	"idaflash/internal/ssd"
)

// testConfig is a small valid device: 4 dies over 2 channels, 96 blocks.
func testConfig(seed int64) ssd.Config {
	return ssd.Config{
		Geometry: flash.Geometry{
			Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
			BlocksPerPlane: 24, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
		},
		Timing: flash.PaperTLCTiming(),
		FTL:    ftl.Options{RefreshPeriod: 20 * time.Minute, Seed: seed},
		Seed:   seed,
	}
}

// park checks n devices out of the arena and puts them all back, leaving n
// idle devices of cfg's geometry.
func park(t *testing.T, a *runpool.Arena, cfg ssd.Config, n int) []*ssd.SSD {
	t.Helper()
	devs := make([]*ssd.SSD, n)
	for i := range devs {
		dev, err := a.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	for _, dev := range devs {
		a.Put(dev)
	}
	return devs
}

// TestGetRejectedConfigKeepsIdle: a config Reset rejects fails the Get
// without costing the arena its parked devices or counting a miss, and the
// next valid Get still reuses one of them.
func TestGetRejectedConfigKeepsIdle(t *testing.T) {
	a := runpool.New()
	cfg := testConfig(1)
	devs := park(t, a, cfg, 3)
	before := a.Stats()

	bad := cfg
	bad.RefreshScanInterval = -1
	if dev, err := a.Get(bad); err == nil || dev != nil {
		t.Fatalf("Get(RefreshScanInterval -1) = %v, %v; want nil device and an error", dev, err)
	}
	if got := a.Stats(); got != before {
		t.Fatalf("rejected Get changed the arena:\nbefore %+v\nafter  %+v", before, got)
	}

	dev, err := a.Get(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if dev != devs[2] {
		t.Fatal("valid Get after a rejected one did not reuse the last parked device")
	}
	if got := a.Stats(); got.Hits != before.Hits+1 || got.Misses != before.Misses || got.Idle != 2 {
		t.Fatalf("reuse after a rejected Get: %+v", got)
	}
	if got := dev.Config().Seed; got != 2 {
		t.Fatalf("reused device runs seed %d, want 2", got)
	}
}

// TestPutDropsOverIdleBound: Puts beyond the per-geometry idle bound drop
// the device and count it.
func TestPutDropsOverIdleBound(t *testing.T) {
	a := runpool.New()
	const n = runpool.DefaultIdlePerGeometry
	park(t, a, testConfig(1), n+1)
	want := runpool.Stats{Misses: n + 1, Returns: n, Dropped: 1, Idle: n}
	if got := a.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestGetKeepsGeometriesApart: an idle device is only ever handed to a Get
// of its own geometry.
func TestGetKeepsGeometriesApart(t *testing.T) {
	a := runpool.New()
	small := testConfig(1)
	parked := park(t, a, small, 1)[0]

	large := testConfig(1)
	large.Geometry.BlocksPerPlane = 32
	dev, err := a.Get(large)
	if err != nil {
		t.Fatal(err)
	}
	if dev == parked || dev.Config().Geometry != large.Geometry {
		t.Fatalf("Get of geometry %+v handed out a device of %+v", large.Geometry, dev.Config().Geometry)
	}
	if got := a.Stats(); got.Hits != 0 || got.Idle != 1 {
		t.Fatalf("Get of another geometry touched the parked device: %+v", got)
	}
	if dev, err := a.Get(small); err != nil || dev != parked {
		t.Fatalf("Get of the parked geometry = %p, %v; want the parked device %p", dev, err, parked)
	}
}

// TestNilArenaIsUnpooled: a nil arena is the unpooled checkout path — every
// Get builds a fresh device (or returns the config error) and Put drops.
func TestNilArenaIsUnpooled(t *testing.T) {
	var a *runpool.Arena
	dev, err := a.Get(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a.Put(dev)
	if again, err := a.Get(testConfig(1)); err != nil || again == dev {
		t.Fatalf("nil arena Get = %p, %v; want a fresh device, not %p", again, err, dev)
	}
	bad := testConfig(1)
	bad.RefreshScanInterval = -1
	if _, err := a.Get(bad); err == nil {
		t.Fatal("nil arena accepted an invalid config")
	}
}
