package ftl

import (
	"testing"

	"idaflash/internal/flash"
)

func TestGCReclaimsInvalidBlocks(t *testing.T) {
	g := tinyGeom()
	f := mustFTL(t, Options{Geometry: g})
	// Write 36 LPNs (3 blocks) twice, then overwrite 24 of them again:
	// the old blocks become fully invalid while free blocks drain to 0.
	// Inline GC is off while filling, so the sweep below does the work.
	f.gcFreeBlocks = 0
	counts := []LPN{36, 36, 24}
	for round, n := range counts {
		for i := LPN(0); i < n; i++ {
			if _, err := f.Write(i, 0); err != nil {
				t.Fatalf("round %d write %d: %v", round, i, err)
			}
		}
	}
	if free := len(f.planes[0].free); free >= 3 {
		t.Fatalf("device did not drain below watermark (free=%d)", free)
	}
	f.gcFreeBlocks = 3
	jobs := mustCollectGC(t, f, 0)
	if len(jobs) == 0 {
		t.Fatal("GC produced no jobs below watermark")
	}
	if free := len(f.planes[0].free); free < 3 {
		t.Errorf("free blocks after GC = %d, want >= 3", free)
	}
	// Fully-invalid victims require no moves.
	for _, j := range jobs {
		if len(j.Moves) != 0 {
			t.Errorf("victim %v moved %d pages; fully-invalid blocks should move none", j.Victim, len(j.Moves))
		}
	}
	// All data still readable.
	for i := LPN(0); i < 36; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost after GC", i)
		}
	}
	if f.Stats().GCJobs == 0 || f.Stats().Erases == 0 {
		t.Error("GC stats not recorded")
	}
	checkInvariants(t, f)
}

func TestGCMovesValidPages(t *testing.T) {
	g := tinyGeom()
	f := mustFTL(t, Options{Geometry: g})
	f.gcFreeBlocks = 6
	// Fill two blocks, then invalidate most (but not all) of the first
	// block's pages by overwriting them.
	for i := LPN(0); i < 24; i++ {
		f.Write(i, 0)
	}
	for i := LPN(0); i < 10; i++ {
		f.Write(i, 0) // rewrites land in block 2+
	}
	jobs := mustCollectGC(t, f, 0)
	if len(jobs) == 0 {
		t.Fatal("no GC jobs")
	}
	// With a watermark this aggressive the plane churns: an LPN may move
	// several times across jobs. Jobs are chronological, so the last
	// recorded destination must be where reads land now.
	lastMove := make(map[LPN]flash.PageAddr)
	moved := 0
	for _, j := range jobs {
		moved += len(j.Moves)
		for _, m := range j.Moves {
			if refAddr(m.From).BlockAddr != j.Victim {
				t.Errorf("move source %v not in victim %v", m.From, j.Victim)
			}
			if m.FromSenses < 1 {
				t.Errorf("move senses = %d", m.FromSenses)
			}
			lastMove[LPN(m.LPN)] = refAddr(m.To)
		}
	}
	if moved == 0 {
		t.Error("expected at least one valid-page move")
	}
	for lpn, to := range lastMove {
		if lpn < 10 {
			// LPNs 0-9 were host-overwritten interleaved with the
			// inline GC jobs, so their recorded moves may predate
			// the final host write.
			continue
		}
		info, ok := f.Read(lpn)
		if !ok || info.Addr != to {
			t.Errorf("LPN %d reads from %v, last moved to %v", lpn, info.Addr, to)
		}
	}
	for i := LPN(0); i < 24; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost", i)
		}
	}
	checkInvariants(t, f)
}

func TestGCPrefersLeastValidVictim(t *testing.T) {
	g := tinyGeom()
	f := mustFTL(t, Options{Geometry: g})
	f.gcFreeBlocks = 1
	// Block A (LPNs 0-11): invalidate 8. Block B (LPNs 12-23):
	// invalidate 2. Then force exactly one GC pass.
	for i := LPN(0); i < 24; i++ {
		f.Write(i, 0)
	}
	for i := LPN(0); i < 8; i++ {
		f.Write(i, 0)
	}
	for i := LPN(12); i < 14; i++ {
		f.Write(i, 0)
	}
	job, ok, err := f.collectPlane(flash.PlaneID(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no victim found")
	}
	// The least-valid block has 12-8=4 valid pages.
	if len(job.Moves) != 4 {
		t.Errorf("victim had %d moves, want 4 (least-valid choice)", len(job.Moves))
	}
	checkInvariants(t, f)
}

func TestGCWearTieBreak(t *testing.T) {
	g := tinyGeom()
	f := mustFTL(t, Options{Geometry: g})
	// Two fully-invalid blocks with different erase counts: the victim
	// must be the one with fewer erases.
	for i := LPN(0); i < 24; i++ {
		f.Write(i, 0)
	}
	for i := LPN(0); i < 24; i++ {
		f.Write(i, 0)
	}
	// Both original blocks now fully invalid; bump one's erase count by
	// reclaiming and refilling it... simpler: tamper directly.
	f.block(0, 0).EraseCount = 5
	job, ok, err := f.collectPlane(flash.PlaneID(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no victim")
	}
	if job.Victim.Block == 0 {
		t.Error("GC chose the higher-wear block on a tie")
	}
	checkInvariants(t, f)
}

func TestGCNothingToDo(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	if jobs := mustCollectGC(t, f, 0); jobs != nil {
		t.Errorf("GC on an empty device returned %d jobs", len(jobs))
	}
	// All-valid device: victim would gain nothing, so GC declines.
	f2 := mustFTL(t, Options{Geometry: tinyGeom()})
	f2.gcFreeBlocks = 7
	for i := LPN(0); i < 24; i++ {
		f2.Write(i, 0)
	}
	if _, ok, _ := f2.collectPlane(flash.PlaneID(0), 0); ok {
		t.Error("GC reclaimed a fully-valid block")
	}
}
