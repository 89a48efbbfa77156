package ftl

import (
	"math"
	"testing"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
)

// scriptedFaults is a deterministic FaultModel for tests: it fails the next
// N program draws and, optionally, every erase draw.
type scriptedFaults struct {
	failNextPrograms int
	failErases       bool
	programDraws     int
	eraseDraws       int
}

func (s *scriptedFaults) ProgramFails(_ flash.PageAddr, _ int) bool {
	s.programDraws++
	if s.failNextPrograms > 0 {
		s.failNextPrograms--
		return true
	}
	return false
}

func (s *scriptedFaults) EraseFails(_ flash.BlockAddr, _ int) bool {
	s.eraseDraws++
	return s.failErases
}

func TestProgramFailureRemapsWrite(t *testing.T) {
	fm := &scriptedFaults{failNextPrograms: 2}
	f := mustFTL(t, Options{Geometry: tinyGeom(), Faults: fm})
	prog, err := f.Write(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first two program attempts failed; the write remapped twice and
	// landed on the third block.
	if prog.FailedPrograms != 2 {
		t.Errorf("FailedPrograms = %d, want 2", prog.FailedPrograms)
	}
	if got := f.Stats().ProgramFailures; got != 2 {
		t.Errorf("stats.ProgramFailures = %d, want 2", got)
	}
	ps := f.planes[0]
	if !f.block(0, 0).Bad || !f.block(0, 1).Bad {
		t.Error("failed blocks not marked grown bad")
	}
	if ps.active != 2 {
		t.Errorf("active block = %d, want 2 (remap target)", ps.active)
	}
	if _, ok := f.Read(0); !ok {
		t.Fatal("LPN 0 unreadable after remap")
	}
	checkInvariants(t, f)

	// The grown-bad blocks are empty, so GC reclaims them next — and their
	// erase retires them instead of returning them to the free list.
	f.gcFreeBlocks = tinyGeom().BlocksPerPlane
	jobs := mustCollectGC(t, f, 0)
	if len(jobs) != 2 {
		t.Fatalf("GC reclaimed %d blocks, want the 2 grown-bad ones", len(jobs))
	}
	st := f.Stats()
	if st.RetiredBlocks != 2 {
		t.Errorf("stats.RetiredBlocks = %d, want 2", st.RetiredBlocks)
	}
	if st.Erases != 0 {
		t.Errorf("stats.Erases = %d; retiring erases must not count as completed", st.Erases)
	}
	if st.EraseFailures != 0 {
		t.Errorf("stats.EraseFailures = %d; bad blocks retire before the erase draw", st.EraseFailures)
	}
	if fm.eraseDraws != 0 {
		t.Errorf("erase fault drawn %d times for already-bad blocks", fm.eraseDraws)
	}
	for _, blk := range ps.free {
		if blk == 0 || blk == 1 {
			t.Fatalf("retired block %d back on the free list", blk)
		}
	}
	u := f.Usage()
	if u.Retired != 2 {
		t.Errorf("Usage().Retired = %d, want 2", u.Retired)
	}
	if _, ok := f.Read(0); !ok {
		t.Fatal("LPN 0 lost after retirement")
	}
	checkInvariants(t, f)
}

func TestEraseFailureRetires(t *testing.T) {
	fm := &scriptedFaults{failErases: true}
	f := mustFTL(t, Options{Geometry: tinyGeom(), Faults: fm})
	// Fill two blocks, then invalidate the first one completely so GC has
	// a free victim whose erase will fail.
	for i := LPN(0); i < 24; i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := LPN(0); i < 12; i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	f.gcFreeBlocks = 6
	freeBefore := len(f.planes[0].free)
	mustCollectGC(t, f, 0)
	st := f.Stats()
	if st.EraseFailures == 0 {
		t.Fatal("no erase failure recorded")
	}
	if st.RetiredBlocks != st.EraseFailures {
		t.Errorf("RetiredBlocks = %d, EraseFailures = %d; every failed erase must retire",
			st.RetiredBlocks, st.EraseFailures)
	}
	if st.Erases != 0 {
		t.Errorf("stats.Erases = %d with every erase failing", st.Erases)
	}
	if got := len(f.planes[0].free); got != freeBefore {
		t.Errorf("free blocks %d -> %d; failed erases must not replenish the free list",
			freeBefore, got)
	}
	if u := f.Usage(); uint64(u.Retired) != st.RetiredBlocks {
		t.Errorf("Usage().Retired = %d, want %d", u.Retired, st.RetiredBlocks)
	}
	// Retired blocks are out of the GC candidate set: another pass finds
	// nothing new to reclaim (remaining blocks are fully valid).
	if jobs := mustCollectGC(t, f, 0); len(jobs) != 0 {
		t.Errorf("second GC pass reclaimed %d blocks, want 0", len(jobs))
	}
	for i := LPN(0); i < 24; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost", i)
		}
	}
	checkInvariants(t, f)
}

// TestRelocationsCarryProgramFailures: every relocation (GC copies,
// original and IDA refresh moves, corrupted write-backs) reports the
// program attempts that failed before it stuck, so the device model
// charges their wasted pulses. The failures on the jobs' move lists must
// add up to the FTL's own count.
func TestRelocationsCarryProgramFailures(t *testing.T) {
	seq := func(from, to LPN) []LPN {
		var lpns []LPN
		for i := from; i < to; i++ {
			lpns = append(lpns, i)
		}
		return lpns
	}
	ablation := refreshOpts(true, 0)
	ablation.IDAOnlyInvalid = true
	cases := []struct {
		name      string
		opts      Options
		writes    []LPN // host writes shaping the blocks
		gc        bool  // collect garbage instead of refreshing
		corrupted bool  // the failures land on a corrupted write-back
	}{
		// Block 0 keeps 3 valid pages and is the GC victim.
		{name: "gc", opts: refreshOpts(false, 0), writes: append(seq(0, 24), seq(0, 9)...), gc: true},
		{name: "original refresh", opts: refreshOpts(false, 0), writes: seq(0, 12)},
		// Fully valid wordlines (case 1) move their LSB page.
		{name: "ida refresh", opts: refreshOpts(true, 0), writes: seq(0, 12)},
		// The ablation relocates case-1 wordlines whole.
		{name: "ida ablation", opts: ablation, writes: seq(0, 12)},
		// Case-2 wordlines move nothing; at E=100% every kept page is
		// written back.
		{name: "corrupted write-back", opts: refreshOpts(true, 1), corrupted: true,
			writes: append(seq(0, 12), lpnAt(0, 0, coding.LSB), lpnAt(0, 1, coding.LSB), lpnAt(0, 2, coding.LSB), lpnAt(0, 3, coding.LSB))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fm := &scriptedFaults{}
			c.opts.Faults = fm
			f := mustFTL(t, c.opts)
			for _, lpn := range c.writes {
				if _, err := f.Write(lpn, 0); err != nil {
					t.Fatal(err)
				}
			}
			before := f.Stats().ProgramFailures
			fm.failNextPrograms = 2
			var gcJobs []GCJob
			var refJobs []RefreshJob
			if c.gc {
				f.gcFreeBlocks = tinyGeom().BlocksPerPlane
				gcJobs = mustCollectGC(t, f, 0)
			} else {
				refJobs = mustDueRefreshes(t, f, 11*hour)
				// Drain any inline GC the relocations triggered.
				gcJobs = mustCollectGC(t, f, 11*hour)
			}
			if len(gcJobs)+len(refJobs) == 0 {
				t.Fatal("no jobs")
			}
			failed := func(ms []MoveOp) (n uint64) {
				for _, m := range ms {
					n += uint64(m.FailedPrograms)
				}
				return n
			}
			var moved, corrupted uint64
			for _, j := range gcJobs {
				moved += failed(j.Moves)
			}
			for _, j := range refJobs {
				moved += failed(j.Moves)
				corrupted += failed(j.CorruptedMoves)
			}
			delta := f.Stats().ProgramFailures - before
			if delta != 2 {
				t.Fatalf("%d program failures drawn, want 2", delta)
			}
			wantMoved, wantCorrupted := delta, uint64(0)
			if c.corrupted {
				wantMoved, wantCorrupted = 0, delta
			}
			if moved != wantMoved || corrupted != wantCorrupted {
				t.Errorf("moves carry %d failed programs and corrupted write-backs %d; want %d and %d",
					moved, corrupted, wantMoved, wantCorrupted)
			}
			checkInvariants(t, f)
		})
	}
}

// TestStripedRelocationKeepsFailedPrograms refreshes a 16-plane device whose
// planes each keep two of their six blocks free, under 8 forced program
// failures in a row. Each failure grows a block bad, so a plane runs out of
// free blocks partway through a relocation's claim and the stripe moves on
// to the next plane. The failures drawn on the exhausted planes must still
// ride on the moves and be charged as program pulses.
func TestStripedRelocationKeepsFailedPrograms(t *testing.T) {
	opts := refreshOpts(false, 0)
	opts.Geometry = multiPlaneGeom()
	fm := &scriptedFaults{}
	opts.Faults = fm
	f := mustFTL(t, opts)
	g := opts.Geometry
	for i := 0; i < g.Planes()*4*g.PagesPerBlock(); i++ {
		if _, err := f.Write(LPN(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	fm.failNextPrograms = 8
	refJobs := mustDueRefreshes(t, f, 11*hour)
	gcJobs := mustCollectGC(t, f, 11*hour)
	var carried uint64
	for _, j := range refJobs {
		for _, m := range j.Moves {
			carried += uint64(m.FailedPrograms)
		}
	}
	for _, j := range gcJobs {
		for _, m := range j.Moves {
			carried += uint64(m.FailedPrograms)
		}
	}
	st := f.Stats()
	if st.ProgramFailures != 8 || carried != st.ProgramFailures {
		t.Errorf("%d program failures drawn, moves carry %d; want 8 and 8", st.ProgramFailures, carried)
	}
	pulses := st.HostWrites + st.GCMoves + st.RefreshMoves + st.ProgramFailures
	if want := float64(pulses) * f.pagePower; math.Abs(st.ProgramPower-want) > 1e-9*want {
		t.Errorf("ProgramPower = %v, want %d pulses x %v = %v", st.ProgramPower, pulses, f.pagePower, want)
	}
	checkInvariants(t, f)
}
