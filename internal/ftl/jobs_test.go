package ftl

import (
	"slices"
	"testing"
	"time"

	"idaflash/internal/flash"
)

// churnFTL returns an IDA FTL with a one-hour refresh period on a
// multi-plane device, filled so that refresh and GC both have work.
func churnFTL(t *testing.T) *FTL {
	t.Helper()
	f := mustFTL(t, Options{
		Geometry:      multiPlaneGeom(),
		Order:         flash.OrderSequential,
		IDAEnabled:    true,
		ErrorRate:     0.5,
		RefreshPeriod: time.Hour,
		Seed:          7,
	})
	for lpn := LPN(0); lpn < churnLPNs; lpn++ {
		if _, err := f.Write(lpn, 0); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// churnLPNs is the churn devices' logical footprint.
const churnLPNs = 300

// churnWrites advances the clock by one refresh period and overwrites a
// scattered set of LPNs, leaving blocks partly valid so GC has pages to
// move. It returns the new instant.
func churnWrites(t testing.TB, f *FTL, cycle int) time.Duration {
	now := time.Duration(cycle+1) * (time.Hour + time.Minute)
	for i := 0; i < 40; i++ {
		if _, err := f.Write(LPN((cycle*41+i*7)%churnLPNs), now); err != nil {
			t.Fatal(err)
		}
	}
	return now
}

// churnCycle runs one churn period, the refresh scan and GC, and returns
// the jobs copied out of the FTL-owned result slices.
func churnCycle(t testing.TB, f *FTL, cycle int) ([]RefreshJob, []GCJob) {
	now := churnWrites(t, f, cycle)
	refresh := slices.Clone(mustDueRefreshes(t, f, now))
	gc := slices.Clone(mustCollectGC(t, f, now))
	return refresh, gc
}

// opLists deep-copies a refresh job's op lists for later comparison.
type opLists struct {
	reads, verify     []ReadOp
	moves, corruption []MoveOp
}

func copyLists(j *RefreshJob) opLists {
	return opLists{slices.Clone(j.Reads), slices.Clone(j.VerifyReads), slices.Clone(j.Moves), slices.Clone(j.CorruptedMoves)}
}

func (l opLists) equal(j *RefreshJob) bool {
	return slices.Equal(l.reads, j.Reads) && slices.Equal(l.verify, j.VerifyReads) &&
		slices.Equal(l.moves, j.Moves) && slices.Equal(l.corruption, j.CorruptedMoves)
}

// TestJobOpListsOwnedUntilRelease: a job's op lists stay intact across later
// DueRefreshes/CollectGC calls until the job is released, even while the
// jobs released around it hand their buffers to newer jobs.
func TestJobOpListsOwnedUntilRelease(t *testing.T) {
	f := churnFTL(t)
	var heldRefresh []RefreshJob
	var heldRefreshLists []opLists
	var heldGC []GCJob
	var heldGCMoves [][]MoveOp
	sawIDA, sawGC := false, false
	for cycle := 0; cycle < 12; cycle++ {
		refresh, gc := churnCycle(t, f, cycle)
		// Hold the first job of each kind, release the rest, so later
		// cycles reuse the released buffers next to the held ones.
		for i := range refresh {
			sawIDA = sawIDA || refresh[i].IDAApplied
			if i == 0 {
				heldRefresh = append(heldRefresh, refresh[i])
				heldRefreshLists = append(heldRefreshLists, copyLists(&refresh[i]))
				continue
			}
			f.ReleaseRefreshJob(&refresh[i])
			if refresh[i].Reads != nil || refresh[i].Moves != nil || refresh[i].VerifyReads != nil || refresh[i].CorruptedMoves != nil {
				t.Fatal("ReleaseRefreshJob left op lists on the job")
			}
		}
		for i := range gc {
			sawGC = sawGC || len(gc[i].Moves) > 0
			if i == 0 {
				heldGC = append(heldGC, gc[i])
				heldGCMoves = append(heldGCMoves, slices.Clone(gc[i].Moves))
				continue
			}
			f.ReleaseGCJob(&gc[i])
			if gc[i].Moves != nil {
				t.Fatal("ReleaseGCJob left the move list on the job")
			}
		}
		for i := range heldRefresh {
			if !heldRefreshLists[i].equal(&heldRefresh[i]) {
				t.Fatalf("cycle %d: held refresh job %d changed before release", cycle, i)
			}
		}
		for i := range heldGC {
			if !slices.Equal(heldGCMoves[i], heldGC[i].Moves) {
				t.Fatalf("cycle %d: held GC job %d changed before release", cycle, i)
			}
		}
	}
	if len(heldRefresh) == 0 || !sawIDA || !sawGC {
		t.Fatalf("churn exercised too little: %d held refresh jobs, IDA %v, GC moves %v", len(heldRefresh), sawIDA, sawGC)
	}
	checkInvariants(t, f)
}

// TestReleasedJobBuffersReused: once every job is released after its cycle,
// a steady-state refresh/GC cycle reuses the pooled buffers and allocates
// nothing.
func TestReleasedJobBuffersReused(t *testing.T) {
	f := churnFTL(t)
	cycle := 0
	run := func() {
		now := churnWrites(t, f, cycle)
		cycle++
		refresh, err := f.DueRefreshes(now)
		if err != nil {
			t.Fatal(err)
		}
		for i := range refresh {
			f.ReleaseRefreshJob(&refresh[i])
		}
		gc, err := f.CollectGC(now)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gc {
			f.ReleaseGCJob(&gc[i])
		}
	}
	// Warm the pools: op lists grow to the largest job they carry.
	for i := 0; i < 200; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state refresh/GC cycle allocates %.1f times, want 0", allocs)
	}
	st := f.Stats()
	if st.Refreshes == 0 || st.IDARefreshes == 0 || st.GCMoves == 0 {
		t.Fatalf("cycles did no background work: %+v", st)
	}
	checkInvariants(t, f)
}

// TestRestoreNeverAliasesPendingGC: Restore copies a State's pending-GC moves
// into the device's own (recycled) move lists, so collecting, charging and
// releasing them on one device never writes into the shared State.
func TestRestoreNeverAliasesPendingGC(t *testing.T) {
	var st *State
	for seed := int64(1); seed < 50 && st == nil; seed++ {
		f := mustFTL(t, snapshotOptions(tinyGeom(), seed, nil))
		ageRandomly(t, f, seed, 400)
		for _, job := range f.pendingGC {
			if len(job.Moves) > 0 {
				st = f.Snapshot()
			}
		}
	}
	if st == nil {
		t.Fatal("no aged device left pending GC moves to snapshot")
	}
	want := make([][]MoveOp, len(st.PendingGC))
	for i, job := range st.PendingGC {
		want[i] = slices.Clone(job.Moves)
	}
	g := mustFTL(t, snapshotOptions(tinyGeom(), 1, nil))
	// The second Restore recycles the first one's pending lists.
	for i := 0; i < 2; i++ {
		if err := g.Restore(st); err != nil {
			t.Fatal(err)
		}
	}
	for i := range g.pendingGC {
		for j := range g.pendingGC[i].Moves {
			g.pendingGC[i].Moves[j] = MoveOp{LPN: -1}
		}
	}
	jobs := mustCollectGC(t, g, 0)
	for i := range jobs {
		g.ReleaseGCJob(&jobs[i])
	}
	for i, job := range st.PendingGC {
		if !slices.Equal(job.Moves, want[i]) {
			t.Fatalf("pending GC job %d of the shared State changed through a restored device", i)
		}
	}
}
