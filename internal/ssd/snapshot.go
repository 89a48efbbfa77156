package ssd

import (
	"fmt"

	"idaflash/internal/snapshot"
)

// The snapshot boundary sits inside RunContext after the zero-time aging
// phases (prefill, aging preamble, warmup replay, CloseActiveBlocks) and
// before StaggerBlockAges/ResetStats. Everything those phases leave for the
// timed phase lives in exactly two places — the FTL's tables and the fault
// injector's random stream position — because the engine never runs
// (simulated time stays 0, no events process), the host-path accumulators
// are untouched (replay writes go straight through ftl.Write), the FTL's
// stats are reset and its rng is still undrawn, and the telemetry sampler
// discards all pre-measurement activity when it arms. So a DeviceState of
// {ftl.State, injector draws} restored onto a freshly-built SSD is
// indistinguishable from having replayed the phases, and the timed phase
// that follows is byte-identical.

// captureAged snapshots the device at the boundary.
func (s *SSD) captureAged() *snapshot.DeviceState {
	return &snapshot.DeviceState{FTL: s.f.Snapshot(), InjectorDraws: s.inj.Draws()}
}

// restoreAged installs a captured boundary state onto this (fresh, unrun)
// device. An error means the state does not belong to this configuration (a
// mis-keyed or corrupt-but-checksummed snapshot) and guarantees the device
// was not touched, so the caller can fall back to an ordinary replay: the
// injector stream is validated before the FTL restore mutates anything, and
// ftl.Restore itself is all-or-nothing.
func (s *SSD) restoreAged(st *snapshot.DeviceState) error {
	if s.inj == nil && st.InjectorDraws > 0 {
		return fmt.Errorf("ssd: snapshot recorded %d fault draws but the run has no scenario", st.InjectorDraws)
	}
	if s.inj.Draws() > st.InjectorDraws {
		return fmt.Errorf("ssd: injector already past the snapshot's fault-stream position %d", st.InjectorDraws)
	}
	if err := s.f.Restore(st.FTL); err != nil {
		return err
	}
	return s.inj.SkipTo(st.InjectorDraws) // cannot fail after the checks above
}
