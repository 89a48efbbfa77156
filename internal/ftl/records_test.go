package ftl

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"idaflash/internal/flash"
)

// TestJobRecordSizes pins the packed background-job records: a job records
// one per page it reads or moves.
func TestJobRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(MoveOp{}); got != 20 {
		t.Errorf("MoveOp is %d bytes, want 20", got)
	}
	if got := unsafe.Sizeof(ReadOp{}); got != 8 {
		t.Errorf("ReadOp is %d bytes, want 8", got)
	}
	// Every sensing count withDefaults accepts is below the bucket count
	// of Stats.ReadsBySenses, so it fits the records' 8-bit fields.
	if n := len(Stats{}.ReadsBySenses); n-1 > math.MaxUint8 {
		t.Errorf("Stats buckets up to %d sensings; the records hold at most %d", n-1, math.MaxUint8)
	}
}

// TestNewRejectsIndexesPastPageRef checks that a geometry whose plane,
// block or page index would not fit a PageRef's 16-bit fields fails
// validation with an error naming them, while the largest that fits passes.
func TestNewRejectsIndexesPastPageRef(t *testing.T) {
	base := flash.Geometry{Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: gcWatermark + 1, WordlinesPerBlock: 1, PageSizeBytes: 8192, BitsPerCell: 1}
	for name, widen := range map[string]func(*flash.Geometry, int){
		"planes": func(g *flash.Geometry, n int) { g.Channels = n },
		"blocks": func(g *flash.Geometry, n int) { g.BlocksPerPlane = n },
		"pages":  func(g *flash.Geometry, n int) { g.WordlinesPerBlock = n },
	} {
		g := base
		widen(&g, refLimit)
		if _, err := (Options{Geometry: g}).withDefaults(); err != nil {
			t.Errorf("%s: %d rejected: %v", name, refLimit, err)
		}
		widen(&g, refLimit+1)
		if _, _, err := ppnFields(g); err != nil {
			t.Fatalf("%s: the geometry must pass the PPN check to reach this one: %v", name, err)
		}
		_, err := New(Options{Geometry: g})
		if err == nil || !strings.Contains(err.Error(), "16-bit indexes") {
			t.Errorf("%s: %d accepted or rejected for another reason: %v", name, refLimit+1, err)
		}
	}
}

// TestRepeatedProgramFailuresNeverTruncate forces 300 program failures on
// one GC move, more than an 8-bit field holds, and checks that the move
// record carries every one of them, as the stats count them.
func TestRepeatedProgramFailuresNeverTruncate(t *testing.T) {
	const failures = 300
	g := tinyGeom()
	g.BlocksPerPlane = 400
	fm := &scriptedFaults{}
	f := mustFTL(t, Options{Geometry: g, Faults: fm})
	for lpn := LPN(0); lpn < 24; lpn++ {
		if _, err := f.Write(lpn, 0); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := LPN(0); lpn < 6; lpn++ {
		if _, err := f.Write(lpn, 0); err != nil { // block 0 keeps 6 valid pages
			t.Fatal(err)
		}
	}
	before := f.Stats().ProgramFailures
	fm.failNextPrograms = failures
	f.gcFreeBlocks = g.BlocksPerPlane
	var total, most uint64
	for _, j := range mustCollectGC(t, f, 0) {
		for _, m := range j.Moves {
			total += uint64(m.FailedPrograms)
			most = max(most, uint64(m.FailedPrograms))
		}
	}
	if delta := f.Stats().ProgramFailures - before; delta != failures || total != failures {
		t.Errorf("moves carry %d failed programs, stats count %d; want %d", total, delta, failures)
	}
	if most != failures {
		t.Errorf("the first move carries %d failed programs, want all %d", most, failures)
	}
	checkInvariants(t, f)
}

// TestTakeListFitsTheJob checks takeList's choice: the smallest free list
// with room for the job's bound, or else a new list of exactly that bound,
// and no list for a job bound to no ops.
func TestTakeListFitsTheJob(t *testing.T) {
	free := [][]MoveOp{make([]MoveOp, 0, 8), make([]MoveOp, 0, 3), make([]MoveOp, 0, 5)}
	if l := takeList(&free, 0); l != nil || len(free) != 3 {
		t.Errorf("need 0: took a list of %d, %d left; want none", cap(l), len(free))
	}
	if l := takeList(&free, 4); cap(l) != 5 || len(free) != 2 {
		t.Errorf("need 4: took a list of %d, %d left; want the 5", cap(l), len(free))
	}
	if l := takeList(&free, 9); cap(l) != 9 || len(free) != 2 {
		t.Errorf("need 9: took a list of %d, %d left; want a new 9", cap(l), len(free))
	}
	if l := takeList(&free, 3); cap(l) != 3 || len(free) != 1 || cap(free[0]) != 8 {
		t.Errorf("need 3: took a list of %d, left %d; want the 3", cap(l), len(free))
	}
}

// TestOpListsNeverRegrow churns a device, releasing every job, and checks
// that no pooled op list grew past a block's pages: every list is taken
// with room for its job's bound, and no bound exceeds a block.
func TestOpListsNeverRegrow(t *testing.T) {
	f := churnFTL(t)
	pages := f.geom.PagesPerBlock()
	jobs := 0
	for cycle := 0; cycle < 12; cycle++ {
		refresh, gc := churnCycle(t, f, cycle)
		for i := range refresh {
			j := &refresh[i]
			for _, c := range []int{cap(j.Reads), cap(j.VerifyReads), cap(j.Moves), cap(j.CorruptedMoves)} {
				if c > pages {
					t.Fatalf("cycle %d: a refresh list has room for %d ops; a block has %d pages", cycle, c, pages)
				}
			}
			f.ReleaseRefreshJob(j)
		}
		for i := range gc {
			if c := cap(gc[i].Moves); c > pages {
				t.Fatalf("cycle %d: a GC list has room for %d moves; a block has %d pages", cycle, c, pages)
			}
			f.ReleaseGCJob(&gc[i])
		}
		jobs += len(refresh) + len(gc)
	}
	if jobs == 0 {
		t.Fatal("the churn ran no jobs")
	}
}
