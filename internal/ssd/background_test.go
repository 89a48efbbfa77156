package ssd

import (
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
)

// use is one resource's background share after a charged job.
type use struct {
	grants uint64
	busy   time.Duration
}

// TestBackgroundCharging charges hand-built GC and refresh jobs on an idle
// test device (planes 0-3 sit on dies 0-3; planes 0-1 on channel 0, 2-3 on
// channel 1) and checks every acquisition the machine issued: the grants
// and busy time of each die and channel, the job's busy total, a drained
// engine, and the machine back in the pool.
func TestBackgroundCharging(t *testing.T) {
	tm := flash.PaperTLCTiming()
	rd := func(senses int) time.Duration { return tm.ReadLatency(senses) + tm.Transfer }
	page := func(pl, blk, pg uint16) ftl.PageRef {
		return ftl.PageRef{Plane: pl, Block: blk, Page: pg}
	}

	cases := []struct {
		name    string
		gc      *ftl.GCJob
		refresh *ftl.RefreshJob
		dies    [4]use
		chans   [2]use
		panics  bool // the job's charge panics before any acquisition
	}{
		{
			// Per move: die grant and channel hold at the source, then
			// the transfer in and the program (with two wasted pulses
			// on the second move) at the destination; then the erase.
			name: "gc with a failed program",
			gc: &ftl.GCJob{
				Victim: flash.BlockAddr{Plane: 0, Block: 1},
				Moves: []ftl.MoveOp{
					{From: page(0, 1, 0), FromSenses: 2, To: page(0, 5, 0)},
					{From: page(0, 1, 3), FromSenses: 1, To: page(2, 5, 1), FailedPrograms: 2},
				},
			},
			dies: [4]use{
				0: {4, tm.Program + tm.Erase},
				2: {1, 3 * tm.Program},
			},
			chans: [2]use{
				0: {3, rd(2) + tm.Transfer + rd(1)},
				1: {1, tm.Transfer},
			},
		},
		{
			name: "gc erase only",
			gc:   &ftl.GCJob{Victim: flash.BlockAddr{Plane: 3, Block: 7}},
			dies: [4]use{3: {1, tm.Erase}},
		},
		{
			name: "original refresh",
			refresh: &ftl.RefreshJob{
				Target: flash.BlockAddr{Plane: 1, Block: 2},
				Reads:  []ftl.ReadOp{{Addr: page(1, 2, 0), Senses: 1}, {Addr: page(1, 2, 1), Senses: 2}},
				Moves: []ftl.MoveOp{
					{From: page(1, 2, 0), FromSenses: 1, To: page(2, 0, 0)},
					{From: page(1, 2, 1), FromSenses: 2, To: page(3, 0, 0)},
				},
			},
			dies: [4]use{
				1: {2, 0},
				2: {1, tm.Program},
				3: {1, tm.Program},
			},
			chans: [2]use{
				0: {2, rd(1) + rd(2)},
				1: {2, 2 * tm.Transfer},
			},
		},
		{
			// Figure 7b: read, relocate, three one-wordline adjustments,
			// verify the kept pages, write back the corrupted one.
			name: "ida refresh",
			refresh: &ftl.RefreshJob{
				Target:      flash.BlockAddr{Plane: 0, Block: 4},
				Reads:       []ftl.ReadOp{{Addr: page(0, 4, 0), Senses: 3}},
				Moves:       []ftl.MoveOp{{From: page(0, 4, 0), FromSenses: 3, To: page(1, 0, 0)}},
				AdjustedWLs: 3,
				VerifyReads: []ftl.ReadOp{{Addr: page(0, 4, 1), Senses: 1}, {Addr: page(0, 4, 2), Senses: 1}},
				CorruptedMoves: []ftl.MoveOp{
					{From: page(0, 4, 2), FromSenses: 1, To: page(3, 0, 0), FailedPrograms: 1},
				},
			},
			dies: [4]use{
				0: {6, 3 * tm.VoltAdjust},
				1: {1, tm.Program},
				3: {1, 2 * tm.Program},
			},
			chans: [2]use{
				0: {4, rd(3) + tm.Transfer + 2*rd(1)},
				1: {1, tm.Transfer},
			},
		},
		{
			name:    "empty refresh",
			refresh: &ftl.RefreshJob{Target: flash.BlockAddr{Plane: 2, Block: 3}},
		},
		{
			// A read needs at least one sensing: the read-hold table
			// panics on zero just as flash.ReadLatency does.
			name: "refresh read with zero sensings",
			refresh: &ftl.RefreshJob{
				Target: flash.BlockAddr{Plane: 1, Block: 2},
				Reads:  []ftl.ReadOp{{Addr: page(1, 2, 0), Senses: 0}},
			},
			panics: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(testConfig(true, 0))
			if err != nil {
				t.Fatal(err)
			}
			if c.panics {
				defer func() {
					if recover() == nil {
						t.Error("charging did not panic")
					}
				}()
			}
			if c.gc != nil {
				s.chargeGC(*c.gc)
			} else {
				s.chargeRefresh(*c.refresh)
			}
			if c.panics {
				return
			}
			if err := s.engine.Run(); err != nil {
				t.Fatal(err)
			}
			if s.engine.Pending() != 0 {
				t.Fatalf("%d events pending after Run", s.engine.Pending())
			}

			var total time.Duration
			check := func(kind string, rs []*sim.Resource, want []use) {
				for i, r := range rs {
					st := r.Stats()
					got := use{st.Grants[sim.PrioBackground], st.BusyTime}
					if got != want[i] {
						t.Errorf("%s%d: %d grants, %v busy; want %d, %v", kind, i, got.grants, got.busy, want[i].grants, want[i].busy)
					}
					total += st.BusyTime
				}
			}
			check("die", s.dies, c.dies[:])
			check("ch", s.channels, c.chans[:])

			gcWant, refreshWant := total, time.Duration(0)
			if c.gc == nil {
				gcWant, refreshWant = 0, total
			}
			if s.gcBusy != gcWant || s.refreshBusy != refreshWant {
				t.Errorf("gcBusy %v, refreshBusy %v; want %v, %v", s.gcBusy, s.refreshBusy, gcWant, refreshWant)
			}
			// The items run strictly one after another on an idle
			// device, so the job ends after exactly its busy time.
			if s.engine.Now() != total {
				t.Errorf("job ended at %v, want %v", s.engine.Now(), total)
			}
			if len(s.bgOps) != 1 {
				t.Fatalf("%d machines in the pool, want 1", len(s.bgOps))
			}
			if o := s.bgOps[0]; o.gc.Moves != nil || o.ref.Reads != nil || o.phases != nil || o.busy != nil {
				t.Errorf("pooled machine not cleared: %+v", o)
			}
		})
	}
}
