// Package runpool pools fully-constructed simulation devices between runs,
// so a farm worker sweeping thousands of points over a handful of device
// shapes rebuilds nothing: the engine's event array, the FTL's dense L2P and
// block tables, the scheduler ring buffers, the latency-histogram buckets,
// and the op/request free lists all survive from run to run through
// ssd.Reset, which reinitializes them in place.
//
// Devices are pooled by geometry — the one configuration axis Reset cannot
// change, because every table is sized for it — and any other config field
// (seed, coding, scheduler, faults, telemetry) may differ freely between
// the run that returned a device and the run that reuses it. ssd.New is a
// sized shell plus the same Reset, so a reset device is a freshly built
// one: pooled and unpooled runs produce the same bytes, and the facade's
// interleaved-reuse tests and the CI determinism gates hold the pool to
// that contract. Reset validates before it commits, so a config it rejects
// fails the Get and the idle device stays parked, untouched.
//
// The one checkout path is Get/Put on an *Arena. A nil *Arena is the
// unpooled path: Get builds a fresh device and Put drops it.
//
// Ownership rule: a device is either checked out (owned exclusively by one
// run) or idle in the pool — never both. Callers must only Put a device
// whose run completed cleanly; after an error or cancellation the device's
// engine may hold undrained events, so the device is simply dropped and
// garbage collected. Putting a device twice, or using it after Put, is a
// data race by construction.
package runpool

import (
	"sync"

	"idaflash/internal/flash"
	"idaflash/internal/ssd"
)

// DefaultIdlePerGeometry bounds how many idle devices one geometry keeps.
// A device pins its full table footprint (the dense L2P alone can be tens
// of MB), so the bound is sized for one device per plausible farm worker
// rather than for unbounded retention.
const DefaultIdlePerGeometry = 16

// Stats counts the arena's traffic. Idle is the current total of parked
// devices across all geometries; the counters are cumulative.
type Stats struct {
	// Hits is the number of Gets served by resetting an idle device.
	Hits uint64 `json:"hits"`
	// Misses is the number of Gets that built a fresh device because no
	// idle device of the geometry was parked.
	Misses uint64 `json:"misses"`
	// Returns is the number of devices parked by Put.
	Returns uint64 `json:"returns"`
	// Dropped is the number of devices Put discarded over the idle bound.
	Dropped uint64 `json:"dropped"`
	// Idle is the current number of parked devices.
	Idle int `json:"idle"`
}

// Arena is a geometry-keyed pool of idle simulation devices. The zero value
// is not usable; call New. All methods are safe for concurrent use — the
// farm's worker slots share one arena.
type Arena struct {
	mu    sync.Mutex
	idle  map[flash.Geometry][]*ssd.SSD
	stats Stats
}

// New builds an arena keeping at most DefaultIdlePerGeometry idle devices
// per geometry.
func New() *Arena {
	return &Arena{idle: make(map[flash.Geometry][]*ssd.SSD)}
}

// Get returns a device configured per cfg: an idle device of the same
// geometry reset in place when one is parked, a freshly built one
// otherwise. The caller owns the device exclusively until it either Puts it
// back (clean run) or drops it (failed run, or kept alive for follow-up
// runs like RunWithFollowup). A config the device rejects returns the error
// and leaves the arena as it was: ssd.Reset validates before it commits, so
// the idle device goes back untouched. A nil arena builds fresh devices.
func (a *Arena) Get(cfg ssd.Config) (*ssd.SSD, error) {
	if a == nil {
		return ssd.New(cfg)
	}
	dev := a.take(cfg.Geometry)
	if dev == nil {
		dev, err := ssd.New(cfg)
		if err == nil {
			a.mu.Lock()
			a.stats.Misses++
			a.mu.Unlock()
		}
		return dev, err
	}
	err := dev.Reset(cfg)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.park(dev)
		return nil, err
	}
	a.stats.Hits++
	return dev, nil
}

// Put parks a device for reuse. Only devices whose run completed cleanly
// may be returned; the arena trusts the caller on that. A nil device, or a
// nil arena, is a no-op; devices over the per-geometry idle bound are
// dropped.
func (a *Arena) Put(dev *ssd.SSD) {
	if a == nil || dev == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.park(dev) {
		a.stats.Returns++
	} else {
		a.stats.Dropped++
	}
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Drain discards every idle device, releasing their memory to the garbage
// collector. Checked-out devices are unaffected.
func (a *Arena) Drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	clear(a.idle)
	a.stats.Idle = 0
}

// park appends a device to its geometry's idle list, reporting false when
// the list is already at the idle bound. The caller holds a.mu.
func (a *Arena) park(dev *ssd.SSD) bool {
	g := dev.Config().Geometry
	if len(a.idle[g]) >= DefaultIdlePerGeometry {
		return false
	}
	a.idle[g] = append(a.idle[g], dev)
	a.stats.Idle++
	return true
}

// take pops an idle device of the geometry, or nil.
func (a *Arena) take(g flash.Geometry) *ssd.SSD {
	a.mu.Lock()
	defer a.mu.Unlock()
	devs := a.idle[g]
	if len(devs) == 0 {
		return nil
	}
	dev := devs[len(devs)-1]
	devs[len(devs)-1] = nil
	a.idle[g] = devs[:len(devs)-1]
	a.stats.Idle--
	return dev
}
