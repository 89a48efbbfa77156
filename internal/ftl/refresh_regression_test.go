package ftl

import (
	"testing"

	"idaflash/internal/coding"
)

// TestDueRefreshesReChecksAfterInlineGC is a regression test for the stale
// eligibility re-check in DueRefreshes: ensureFree's inline GC can reclaim
// the very block the scan is about to refresh, and free-list reuse can then
// reopen it, refill it with other victims' relocated pages, and close it
// again — a block full of data programmed *now*. Checking only the
// active/empty conditions on the stale loop variable let the scan emit a
// refresh for that freshly-written block; the scan must re-read the entry
// and re-check full eligibility, including age.
func TestDueRefreshesReChecksAfterInlineGC(t *testing.T) {
	opts := refreshOpts(false, 0)
	f := mustFTL(t, opts)
	// Disable inline GC while shaping the layout; the scan below re-enables
	// it so the due block's ensureFree is the first GC to run.
	f.gcFreeBlocks = 0
	write := func(lo, hi LPN) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := f.Write(i, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Fill b0..b6 (allocation ascends from block 0) with overwrites shaping
	// the GC victim order: b1 keeps 4 valid pages (the due block and first
	// victim), b2 keeps 10, b3 keeps 11, everything else stays fully valid.
	// b7 remains free, so the scan's ensureFree starts one below the
	// watermark of 2 and chain-collects b1, b2, then b3.
	write(0, 12)  // b0
	write(12, 24) // b1
	write(24, 36) // b2
	write(36, 48) // b3
	write(12, 20) // b4 <- b1 drops to 4 valid
	write(24, 26) // b4 <- b2 drops to 10 valid
	write(36, 37) // b4 <- b3 drops to 11 valid
	write(48, 49) // b4 full
	write(49, 61) // b5
	write(61, 73) // b6
	ps := f.planes[0]
	if len(ps.free) != 1 || ps.free[0] != 7 || ps.active != -1 {
		t.Fatalf("setup: free=%v active=%d, want only b7 free and no open block", ps.free, ps.active)
	}
	now := 11 * hour // past the 10h refresh period
	// Only b1 is due: backdating everything else isolates the scenario.
	for _, blk := range []int{0, 2, 3, 4, 5, 6} {
		f.block(0, blk).ProgrammedAt = now
	}
	f.gcFreeBlocks = gcWatermark

	jobs := mustDueRefreshes(t, f, now)

	// Inline GC collected b1 (4 moves open b7), then b2 (10 moves close b7
	// and reopen the just-erased b1), then b3 (11 moves close b1 — now full
	// of pages programmed at `now` — and reopen b2). Refreshing b1 would
	// immediately relocate those fresh pages again.
	if len(jobs) != 0 {
		for _, j := range jobs {
			t.Logf("job target %v", j.Target)
		}
		t.Fatalf("DueRefreshes returned %d jobs, want 0 (stale re-check refreshed the refilled block)", len(jobs))
	}
	// Precondition check: if allocation internals change and the chain
	// above stops holding, the test needs a new worked-out scenario.
	if f.Stats().GCJobs != 3 || ps.active != 2 {
		t.Fatalf("scenario drifted: GCJobs=%d active=%d, want 3 inline GC jobs ending with b2 open",
			f.Stats().GCJobs, ps.active)
	}
	if b := f.block(0, 1); b.NextStep != 12 || b.ValidCount != 12 || b.ProgrammedAt != now {
		t.Fatalf("scenario drifted: b1 step=%d valid=%d, want b1 refilled and closed at now",
			b.NextStep, b.ValidCount)
	}
	for i := LPN(0); i < 73; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost", i)
		}
	}
	checkInvariants(t, f)
}

// TestRefreshIDAOnlyInvalid covers the ablation branch: with IDAOnlyInvalid
// set, a fully-valid wordline (Table I case 1) is relocated like the
// original flow, while a wordline that lost a lower page is still
// voltage-adjusted.
func TestRefreshIDAOnlyInvalid(t *testing.T) {
	opts := refreshOpts(true, 0)
	opts.IDAOnlyInvalid = true
	f := mustFTL(t, opts)
	for i := LPN(0); i < 12; i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate WL0's LSB; WLs 1-3 stay fully valid.
	if _, err := f.Write(lpnAt(0, 0, coding.LSB), lateWrite); err != nil {
		t.Fatal(err)
	}
	jobs := mustDueRefreshes(t, f, 11*hour)
	if len(jobs) != 1 {
		t.Fatalf("got %d refresh jobs, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Target.Block != 0 {
		t.Fatalf("refreshed block %d, want 0", job.Target.Block)
	}
	if !job.IDAApplied || job.AdjustedWLs != 1 {
		t.Errorf("IDAApplied=%v AdjustedWLs=%d, want the invalid-LSB wordline adjusted",
			job.IDAApplied, job.AdjustedWLs)
	}
	// The three fully-valid wordlines relocate all 9 pages instead of
	// being converted; the adjusted wordline keeps its 2 valid pages.
	if len(job.Moves) != 9 {
		t.Errorf("Moves = %d, want 9 (3 fully-valid wordlines relocated)", len(job.Moves))
	}
	if job.ValidPages != 11 {
		t.Errorf("ValidPages = %d, want 11", job.ValidPages)
	}
	if len(job.VerifyReads) != 2 || job.KeptPages != 2 || len(job.CorruptedMoves) != 0 {
		t.Errorf("verify=%d kept=%d corrupted=%d, want 2/2/0 with a zero error rate",
			len(job.VerifyReads), job.KeptPages, len(job.CorruptedMoves))
	}
	if !f.block(0, 0).IDA {
		t.Error("target block not marked IDA after adjustment")
	}
	for i := LPN(0); i < 12; i++ {
		if _, ok := f.Read(i); !ok {
			t.Fatalf("LPN %d lost", i)
		}
	}
	checkInvariants(t, f)
}

// TestRefreshIDAOnlyInvalidAllValid covers the AdjustedWLs == 0 early
// return: when every wordline is fully valid, the ablation mode relocates
// the whole block and the refresh completes exactly like the original flow
// — no adjustment, no verify reads, age reset.
func TestRefreshIDAOnlyInvalidAllValid(t *testing.T) {
	opts := refreshOpts(true, 0)
	opts.IDAOnlyInvalid = true
	f := mustFTL(t, opts)
	for i := LPN(0); i < 12; i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	now := 11 * hour
	jobs := mustDueRefreshes(t, f, now)
	if len(jobs) != 1 {
		t.Fatalf("got %d refresh jobs, want 1", len(jobs))
	}
	job := jobs[0]
	if job.IDAApplied || job.AdjustedWLs != 0 {
		t.Errorf("IDAApplied=%v AdjustedWLs=%d, want nothing adjusted", job.IDAApplied, job.AdjustedWLs)
	}
	if len(job.Moves) != 12 {
		t.Errorf("Moves = %d, want all 12 pages relocated", len(job.Moves))
	}
	if len(job.VerifyReads) != 0 || job.KeptPages != 0 || len(job.CorruptedMoves) != 0 {
		t.Error("early return must skip the verify/write-back steps")
	}
	b := f.block(0, 0)
	if !b.Refreshed || b.IDA {
		t.Errorf("refreshed=%v ida=%v, want refreshed without IDA conversion", b.Refreshed, b.IDA)
	}
	if b.ValidCount != 0 {
		t.Errorf("target still holds %d valid pages", b.ValidCount)
	}
	if b.ProgrammedAt != now {
		t.Error("age not reset; the emptied block would re-trigger refresh scans")
	}
	st := f.Stats()
	if st.Refreshes != 1 || st.IDARefreshes != 0 {
		t.Errorf("Refreshes=%d IDARefreshes=%d, want 1/0", st.Refreshes, st.IDARefreshes)
	}
	if jobs := mustDueRefreshes(t, f, now); len(jobs) != 0 {
		t.Errorf("second scan produced %d jobs for the emptied block", len(jobs))
	}
	checkInvariants(t, f)
}
