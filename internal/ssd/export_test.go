package ssd

import (
	"time"

	"idaflash/internal/sim"
)

// PendingPeak tracks the most events a device's engine holds pending,
// sampled at every enqueue and grant on the device's dies and channels.
type PendingPeak struct {
	engine *sim.Engine
	Max    int
}

// WatchPending hooks every die and channel of s to a PendingPeak. Install it
// after New and before Run; it replaces any telemetry hook.
func WatchPending(s *SSD) *PendingPeak {
	p := &PendingPeak{engine: s.engine}
	for _, rs := range [][]*sim.Resource{s.dies, s.channels} {
		for _, r := range rs {
			r.SetHook(p)
		}
	}
	return p
}

func (p *PendingPeak) sample() { p.Max = max(p.Max, p.engine.Pending()) }

func (p *PendingPeak) ResourceEnqueued(*sim.Resource, sim.Priority, int) { p.sample() }

func (p *PendingPeak) ResourceGranted(*sim.Resource, sim.Priority, time.Duration, time.Duration) {
	p.sample()
}
