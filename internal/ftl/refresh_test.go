package ftl

import (
	"testing"
	"time"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

const hour = sim.Time(time.Hour)

func refreshOpts(ida bool, errRate float64) Options {
	return Options{
		Geometry:      tinyGeom(),
		Order:         flash.OrderSequential,
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
	f.Write(0, 0) // one page invalid in the target block
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
	b := f.planes[j.Target.Plane].blocks[j.Target.Block]
	if b.validCount != 0 {
		t.Errorf("target block still has %d valid pages", b.validCount)
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
	// Sequential order: WL w holds LPNs 3w (LSB), 3w+1 (CSB), 3w+2 (MSB).
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	// Invalidate the LSB of every wordline: all WLs become case 2.
	for w := LPN(0); w < 4; w++ {
		f.Write(3*w, 0)
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
	for w := LPN(0); w < 4; w++ {
		csb, _ := f.Read(3*w + 1)
		if csb.Senses != 1 || !csb.IDA {
			t.Errorf("WL %d CSB after IDA: senses %d ida %v", w, csb.Senses, csb.IDA)
		}
		msb, _ := f.Read(3*w + 2)
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
		info, ok := f.Read(m.LPN)
		if !ok || info.Addr != m.To {
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
	f.Write(1, 0)
	f.Write(3, 0)
	f.Write(4, 0)
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) == 0 {
		t.Fatal("no refresh jobs")
	}
	// MSBs of WL0 (LPN 2) and WL1 (LPN 5) must now read with 1 sensing.
	for _, lpn := range []LPN{2, 5} {
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
	for w := LPN(0); w < 4; w++ {
		f.Write(3*w+2, 0)
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
	b := f.planes[j.Target.Plane].blocks[j.Target.Block]
	if b.validCount != 0 {
		t.Errorf("block still holds %d valid pages", b.validCount)
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
	b := f.planes[target.Plane].blocks[target.Block]
	if b.validCount != 0 {
		t.Errorf("IDA block still holds %d valid pages after forced reclaim", b.validCount)
	}
	checkInvariants(t, f)
}

func TestRefreshDeterminism(t *testing.T) {
	run := func() []RefreshJob {
		f := mustFTL(t, refreshOpts(true, 0.5))
		for i := LPN(0); i < 24; i++ {
			f.Write(i, 0)
		}
		for i := LPN(0); i < 6; i++ {
			f.Write(i*3, 0)
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
	for _, ps := range f.planes {
		for blk, b := range ps.blocks {
			if b == nil || blk == ps.active || b.nextStep != f.order.Len() {
				continue
			}
			if b.programmedAt > 0 || b.programmedAt < -10*hour {
				t.Errorf("staggered age %v out of range", b.programmedAt)
			}
			ages[b.programmedAt] = true
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
	if f2.planes[0].blocks[0].programmedAt != 0 {
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
	for w := LPN(0); w < 16; w++ {
		f.Write(3*w, 0)
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
	opts := Options{Geometry: tinyGeom(), Code: coding.Vendor232TLC(), Order: flash.OrderSequential}
	f := mustFTL(t, opts)
	for i := LPN(0); i < 3; i++ {
		f.Write(i, 0)
	}
	want := []int{2, 3, 2}
	for i := LPN(0); i < 3; i++ {
		info, _ := f.Read(i)
		if info.Senses != want[i] {
			t.Errorf("2-3-2 page %d senses = %d, want %d", i, info.Senses, want[i])
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
	f.Write(3, 0)
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
	if csb, _ := f.Read(4); csb.Senses != 1 || !csb.IDA {
		t.Errorf("case-2 CSB after ablation refresh: %+v", csb)
	}
	// Case-1 pages were relocated and stay conventional.
	if lsb, _ := f.Read(0); lsb.IDA {
		t.Error("case-1 page converted despite IDAOnlyInvalid")
	}
	checkInvariants(t, f)
}
