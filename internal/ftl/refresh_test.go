package ftl

import (
	"testing"
	"time"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

const hour = sim.Time(time.Hour)

// lateWrite is when the refresh tests overwrite pages of blocks filled at
// time 0. The block those overwrites open is then younger than half the 10h
// period at the 11h scan, so it stays open instead of being force-closed
// into the scan.
const lateWrite = 10 * hour

func refreshOpts(ida bool, errRate float64) Options {
	return Options{
		Geometry:      tinyGeom(),
		IDAEnabled:    ida,
		ErrorRate:     errRate,
		RefreshPeriod: time.Duration(10 * hour),
		Seed:          1,
	}
}

func TestRefreshDisabled(t *testing.T) {
	opts := refreshOpts(false, 0)
	opts.RefreshPeriod = 0
	f := mustFTL(t, opts)
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	if jobs := mustDueRefreshes(t, f, 1000*hour); jobs != nil {
		t.Errorf("refresh disabled but %d jobs returned", len(jobs))
	}
}

func TestRefreshNotDueBeforePeriod(t *testing.T) {
	f := mustFTL(t, refreshOpts(false, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	if jobs := mustDueRefreshes(t, f, 5*hour); len(jobs) != 0 {
		t.Errorf("refresh fired %d jobs before the period", len(jobs))
	}
	if jobs := mustDueRefreshes(t, f, 11*hour); len(jobs) != 1 {
		t.Errorf("refresh fired %d jobs after the period, want 1", len(jobs))
	}
}

func TestOriginalRefreshMovesEverything(t *testing.T) {
	f := mustFTL(t, refreshOpts(false, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	f.Write(0, lateWrite) // one page invalid in the target block
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) == 0 {
		t.Fatal("no refresh jobs")
	}
	// The moves may fill (and close) the destination block, making it
	// refresh-eligible in the same scan; examine the original target.
	j := jobs[0]
	if j.Target.Block != 0 {
		t.Fatalf("first refreshed block = %v, want block 0", j.Target)
	}
	if j.IDAApplied {
		t.Error("original refresh reported IDA")
	}
	if j.ValidPages != 11 || len(j.Reads) != 11 || len(j.Moves) != 11 {
		t.Errorf("job = valid %d reads %d moves %d, want 11/11/11", j.ValidPages, len(j.Reads), len(j.Moves))
	}
	if j.AdjustedWLs != 0 || len(j.VerifyReads) != 0 || len(j.CorruptedMoves) != 0 {
		t.Error("original refresh has IDA side effects")
	}
	// Target block now fully invalid.
	b := f.block(j.Target.Plane, j.Target.Block)
	if b.ValidCount != 0 {
		t.Errorf("target block still has %d valid pages", b.ValidCount)
	}
	// Data intact.
	for i := LPN(0); i < 12; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost in refresh", i)
		}
	}
	// The same block must not refresh again immediately.
	if jobs := mustDueRefreshes(t, f, 11*hour); len(jobs) != 0 {
		t.Errorf("block re-refreshed %d times in one scan cycle", len(jobs))
	}
	checkInvariants(t, f)
}

func TestIDARefreshCase2Wordline(t *testing.T) {
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	// Invalidate the LSB of every wordline: all WLs become case 2.
	for w := 0; w < 4; w++ {
		f.Write(lpnAt(0, w, coding.LSB), lateWrite)
	}
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if !j.IDAApplied {
		t.Fatal("IDA refresh not applied")
	}
	if j.AdjustedWLs != 4 {
		t.Errorf("adjusted WLs = %d, want 4", j.AdjustedWLs)
	}
	// Case 2 moves nothing; every CSB and MSB page stays.
	if len(j.Moves) != 0 {
		t.Errorf("case-2 wordlines moved %d pages", len(j.Moves))
	}
	if len(j.VerifyReads) != 8 || j.KeptPages != 8 {
		t.Errorf("verify reads %d kept %d, want 8/8", len(j.VerifyReads), j.KeptPages)
	}
	// Post-IDA senses: CSB 1, MSB 2; verify reads already use them.
	for _, r := range j.VerifyReads {
		if r.Senses != 1 && r.Senses != 2 {
			t.Errorf("verify read senses = %d", r.Senses)
		}
	}
	// Host reads now see reduced latencies.
	for w := 0; w < 4; w++ {
		csb, _ := f.Read(lpnAt(0, w, coding.CSB))
		if csb.Senses != 1 || !csb.IDA {
			t.Errorf("WL %d CSB after IDA: senses %d ida %v", w, csb.Senses, csb.IDA)
		}
		msb, _ := f.Read(lpnAt(0, w, coding.MSB))
		if msb.Senses != 2 || !msb.IDA {
			t.Errorf("WL %d MSB after IDA: senses %d ida %v", w, msb.Senses, msb.IDA)
		}
	}
	checkInvariants(t, f)
}

func TestIDARefreshCase1MovesLSB(t *testing.T) {
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	// All wordlines fully valid: case 1 moves each LSB and keeps CSB/MSB.
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if !j.IDAApplied || j.AdjustedWLs != 4 {
		t.Fatalf("job = %+v", j)
	}
	if len(j.Moves) != 4 {
		t.Errorf("moves = %d, want 4 LSB relocations", len(j.Moves))
	}
	for _, m := range j.Moves {
		if m.FromSenses != 1 {
			t.Errorf("moved page senses = %d, want 1 (LSB)", m.FromSenses)
		}
		// Relocated LSBs must still be readable at their new home.
		info, ok := f.Read(LPN(m.LPN))
		if !ok || info.Addr != refAddr(m.To) {
			t.Errorf("moved LPN %d reads from %v, want %v", m.LPN, info.Addr, m.To)
		}
	}
	checkInvariants(t, f)
}

func TestIDARefreshCase3And4(t *testing.T) {
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	// WL0: invalidate CSB only (case 3). WL1: invalidate LSB+CSB (case 4).
	f.Write(lpnAt(0, 0, coding.CSB), lateWrite)
	f.Write(lpnAt(0, 1, coding.LSB), lateWrite)
	f.Write(lpnAt(0, 1, coding.CSB), lateWrite)
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) == 0 {
		t.Fatal("no refresh jobs")
	}
	// The MSBs of WL0 and WL1 must now read with 1 sensing.
	for _, lpn := range []LPN{lpnAt(0, 0, coding.MSB), lpnAt(0, 1, coding.MSB)} {
		info, ok := f.Read(lpn)
		if !ok {
			t.Fatalf("LPN %d lost", lpn)
		}
		if info.Senses != 1 || !info.IDA {
			t.Errorf("LPN %d after case 3/4: senses %d ida %v", lpn, info.Senses, info.IDA)
		}
	}
	checkInvariants(t, f)
}

func TestIDARefreshCase5To7MovesOnly(t *testing.T) {
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	// Invalidate every MSB: all wordlines become case 5 (MSB invalid,
	// LSB+CSB valid), so nothing is adjustable.
	for w := 0; w < 4; w++ {
		f.Write(lpnAt(0, w, coding.MSB), lateWrite)
	}
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) == 0 {
		t.Fatal("no refresh jobs")
	}
	j := jobs[0]
	if j.Target.Block != 0 {
		t.Fatalf("first refreshed block = %v, want block 0", j.Target)
	}
	if j.IDAApplied || j.AdjustedWLs != 0 {
		t.Errorf("case-5 block applied IDA: %+v", j)
	}
	if len(j.Moves) != 8 {
		t.Errorf("moves = %d, want 8 (4 LSB + 4 CSB)", len(j.Moves))
	}
	checkInvariants(t, f)
}

func TestIDARefreshErrorRateOne(t *testing.T) {
	// E=100%: every kept page is corrupted and written back; the block
	// ends up with no valid pages despite the adjustment.
	f := mustFTL(t, refreshOpts(true, 1.0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if !j.IDAApplied {
		t.Fatal("IDA not applied")
	}
	if j.KeptPages != 0 {
		t.Errorf("kept pages = %d, want 0 at E=100%%", j.KeptPages)
	}
	if len(j.CorruptedMoves) != len(j.VerifyReads) {
		t.Errorf("corrupted %d != verified %d", len(j.CorruptedMoves), len(j.VerifyReads))
	}
	// All data remains readable (the error-free copies were written).
	for i := LPN(0); i < 12; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost", i)
		}
	}
	b := f.block(j.Target.Plane, j.Target.Block)
	if b.ValidCount != 0 {
		t.Errorf("block still holds %d valid pages", b.ValidCount)
	}
	checkInvariants(t, f)
}

func TestIDABlockForcedReclaimNextCycle(t *testing.T) {
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) != 1 || !jobs[0].IDAApplied {
		t.Fatal("first refresh should apply IDA")
	}
	target := jobs[0].Target
	// Next cycle: the IDA block must be refreshed with the original
	// flow (moved out entirely), not re-adjusted.
	jobs = mustDueRefreshes(t, f, 22*hour)
	var second *RefreshJob
	for i := range jobs {
		if jobs[i].Target == target {
			second = &jobs[i]
		}
	}
	if second == nil {
		t.Fatal("IDA block not refreshed on the next cycle")
	}
	if second.IDAApplied {
		t.Error("IDA block re-adjusted instead of reclaimed")
	}
	if len(second.Moves) != second.ValidPages {
		t.Errorf("forced reclaim moved %d of %d pages", len(second.Moves), second.ValidPages)
	}
	b := f.block(target.Plane, target.Block)
	if b.ValidCount != 0 {
		t.Errorf("IDA block still holds %d valid pages after forced reclaim", b.ValidCount)
	}
	checkInvariants(t, f)
}

func TestRefreshDeterminism(t *testing.T) {
	run := func() []RefreshJob {
		f := mustFTL(t, refreshOpts(true, 0.5))
		for i := LPN(0); i < 24; i++ {
			f.Write(i, 0)
		}
		for i := 0; i < 6; i++ { // the LSBs of WLs 0-3 in block 0 and WLs 0-1 in block 1
			f.Write(lpnAt(i/4, i%4, coding.LSB), lateWrite)
		}
		return mustDueRefreshes(t, f, 11*hour)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("job counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target != b[i].Target || a[i].KeptPages != b[i].KeptPages ||
			len(a[i].CorruptedMoves) != len(b[i].CorruptedMoves) ||
			len(a[i].Moves) != len(b[i].Moves) {
			t.Fatalf("job %d differs between identical runs", i)
		}
	}
}

func TestStaggerBlockAges(t *testing.T) {
	f := mustFTL(t, refreshOpts(false, 0))
	for i := LPN(0); i < 48; i++ { // four full blocks
		f.Write(i, 0)
	}
	f.StaggerBlockAges(0)
	ages := make(map[sim.Time]bool)
	for pl, ps := range f.planes {
		for blk, b := range f.planeBlocks(flash.PlaneID(pl)) {
			if blk == ps.active || b.NextStep != len(f.order) {
				continue
			}
			if b.ProgrammedAt > 0 || b.ProgrammedAt < -10*hour {
				t.Errorf("staggered age %v out of range", b.ProgrammedAt)
			}
			ages[b.ProgrammedAt] = true
		}
	}
	if len(ages) < 2 {
		t.Error("stagger produced identical ages")
	}
	// With refresh disabled it is a no-op.
	opts := refreshOpts(false, 0)
	opts.RefreshPeriod = 0
	f2 := mustFTL(t, opts)
	for i := LPN(0); i < 12; i++ {
		f2.Write(i, 0)
	}
	f2.StaggerBlockAges(0)
	if f2.block(0, 0).ProgrammedAt != 0 {
		t.Error("stagger ran with refresh disabled")
	}
}

func TestTableIVShapeAtE20(t *testing.T) {
	// With E=20%, extra writes should be about 20% of extra reads, and
	// extra reads should be about the kept fraction of valid pages.
	f := mustFTL(t, refreshOpts(true, 0.2))
	// 4 full blocks, every wordline case 2 (LSB invalid).
	for i := LPN(0); i < 48; i++ {
		f.Write(i, 0)
	}
	for blk := 0; blk < 4; blk++ {
		for w := 0; w < 4; w++ {
			f.Write(lpnAt(blk, w, coding.LSB), lateWrite)
		}
	}
	jobs := mustDueRefreshes(t, f, 11*hour)
	var verify, corrupted int
	for _, j := range jobs {
		verify += len(j.VerifyReads)
		corrupted += len(j.CorruptedMoves)
	}
	if verify == 0 {
		t.Fatal("no verify reads")
	}
	ratio := float64(corrupted) / float64(verify)
	if ratio < 0.05 || ratio > 0.40 {
		t.Errorf("corrupted/verify = %.2f, want ~0.20", ratio)
	}
	st := f.Stats()
	if st.IDAVerifyReads != uint64(verify) || st.IDACorruptedWrites != uint64(corrupted) {
		t.Error("Table IV counters inconsistent with jobs")
	}
}

func TestCoding232SchemeInFTL(t *testing.T) {
	// The FTL accepts a custom scheme; with the 2-3-2 coding the page
	// sensing counts follow that scheme.
	opts := Options{Geometry: tinyGeom(), Code: coding.Vendor232TLC()}
	f := mustFTL(t, opts)
	// Steps 0-3 of the shadow order program all of WL0.
	for i := LPN(0); i < 4; i++ {
		f.Write(i, 0)
	}
	want := []int{2, 3, 2}
	for typ := coding.LSB; typ <= coding.MSB; typ++ {
		info, _ := f.Read(lpnAt(0, 0, typ))
		if info.Senses != want[typ] {
			t.Errorf("2-3-2 page %v senses = %d, want %d", typ, info.Senses, want[typ])
		}
	}
}

func TestIDAOnlyInvalidAblation(t *testing.T) {
	opts := refreshOpts(true, 0)
	opts.IDAOnlyInvalid = true
	f := mustFTL(t, opts)
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	// WL0 stays fully valid (case 1); WL1 loses its LSB (case 2).
	f.Write(lpnAt(0, 1, coding.LSB), lateWrite)
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) == 0 {
		t.Fatal("no refresh jobs")
	}
	j := jobs[0]
	if j.Target.Block != 0 {
		t.Fatalf("first job target %v", j.Target)
	}
	if !j.IDAApplied {
		t.Fatal("case-2 wordline should still be adjusted")
	}
	// Only WL1 (and WLs 2-3, also case 1 -> moved) adjust in this mode:
	// exactly one adjusted wordline.
	if j.AdjustedWLs != 1 {
		t.Errorf("adjusted WLs = %d, want 1 (only the case-2 wordline)", j.AdjustedWLs)
	}
	// The three case-1 wordlines moved all 3 pages each (9 moves).
	if len(j.Moves) != 9 {
		t.Errorf("moves = %d, want 9 (case-1 wordlines relocated whole)", len(j.Moves))
	}
	// Case-2 kept pages read fast afterwards.
	if csb, _ := f.Read(lpnAt(0, 1, coding.CSB)); csb.Senses != 1 || !csb.IDA {
		t.Errorf("case-2 CSB after ablation refresh: %+v", csb)
	}
	// Case-1 pages were relocated and stay conventional.
	if lsb, _ := f.Read(lpnAt(0, 0, coding.LSB)); lsb.IDA {
		t.Error("case-1 page converted despite IDAOnlyInvalid")
	}
	checkInvariants(t, f)
}

// TestAgedOpenBlockCloses pins the open-block bound: an active block open
// for half the refresh period is closed by the next Write and by
// DueRefreshes, so its pages reach the refresher, but not while its plane
// has fewer than 2 free blocks, and never without a refresh period.
func TestAgedOpenBlockCloses(t *testing.T) {
	const half = 5 * hour // refreshOpts' 10h period
	// fill writes LPNs [0, n) at time 0 and returns the plane.
	fill := func(f *FTL, n LPN) *plane {
		t.Helper()
		for i := LPN(0); i < n; i++ {
			if _, err := f.Write(i, 0); err != nil {
				t.Fatal(err)
			}
		}
		return f.planes[0]
	}
	write := func(f *FTL, lpn LPN, now sim.Time) PageProgram {
		t.Helper()
		prog, err := f.Write(lpn, now)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}

	// Write: block 0 holds 4 pages written at time 0.
	f := mustFTL(t, refreshOpts(false, 0))
	ps := fill(f, 4)
	if prog := write(f, 4, half-1); prog.Addr.Block != 0 {
		t.Fatalf("write just before half the period landed in block %d, want 0", prog.Addr.Block)
	}
	if prog := write(f, 5, half); prog.Addr.Block != 1 {
		t.Fatalf("write at half the period landed in block %d, want 1 after closing block 0", prog.Addr.Block)
	}
	if b := f.block(0, 0); b.NextStep != 5 || b.ProgrammedAt != 0 {
		t.Errorf("closed block 0: step %d programmedAt %v, want 5 and 0", b.NextStep, b.ProgrammedAt)
	}

	// DueRefreshes closes the aged block, and a later scan refreshes it.
	f = mustFTL(t, refreshOpts(false, 0))
	ps = fill(f, 4)
	mustDueRefreshes(t, f, half-1)
	if ps.active != 0 {
		t.Fatalf("scan before half the period closed the open block (active %d)", ps.active)
	}
	mustDueRefreshes(t, f, half)
	if ps.active != -1 {
		t.Fatalf("scan at half the period left block %d open", ps.active)
	}
	if jobs := mustDueRefreshes(t, f, 11*hour); len(jobs) != 1 || jobs[0].Target.Block != 0 || jobs[0].ValidPages != 4 {
		t.Errorf("refresh after the period = %+v, want one job for the 4 pages of block 0", jobs)
	}

	// Space pressure: blocks 0-5 full, block 6 open, only block 7 free.
	f = mustFTL(t, refreshOpts(false, 0))
	ps = fill(f, 76)
	if len(ps.free) != 1 || ps.active != 6 {
		t.Fatalf("setup: free %v active %d, want one free block and block 6 open", ps.free, ps.active)
	}
	mustDueRefreshes(t, f, half)
	if prog := write(f, 76, half); ps.active != 6 || prog.Addr.Block != 6 {
		t.Errorf("plane with 1 free block closed its aged block (write landed in %d, active %d)", prog.Addr.Block, ps.active)
	}

	// No refresh period: blocks only close when full.
	opts := refreshOpts(false, 0)
	opts.RefreshPeriod = 0
	f = mustFTL(t, opts)
	ps = fill(f, 4)
	if prog := write(f, 4, 1000*hour); prog.Addr.Block != 0 || ps.active != 0 {
		t.Errorf("refresh disabled but the open block closed (write landed in %d)", prog.Addr.Block)
	}
}
