package ftl

import (
	"fmt"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// ReadOp is one physical page read inside a background job.
type ReadOp struct {
	Addr   flash.PageAddr
	Senses int
}

// RefreshJob describes one completed data refresh of a block, in the shape
// of the paper's Figure 7. All mapping state has already been updated; the
// SSD model charges the timing of the listed operations.
type RefreshJob struct {
	Target flash.BlockAddr
	// IDAApplied reports whether this refresh used the modified flow
	// (Figure 7b): at least one wordline was voltage-adjusted.
	IDAApplied bool
	// ValidPages is the number of valid pages at the start of refresh
	// (Table IV column 2): they are all read and ECC-decoded.
	ValidPages int
	// Reads lists those initial page reads with pre-refresh sensing
	// counts.
	Reads []ReadOp
	// Moves lists pages relocated to a new block: all valid pages in the
	// original flow; the non-beneficial pages (Table I) in the modified
	// flow.
	Moves []MoveOp
	// AdjustedWLs counts voltage-adjusted wordlines; each costs one
	// VoltAdjust latency on the die.
	AdjustedWLs int
	// VerifyReads lists the post-adjustment integrity reads of kept
	// pages (Table IV "# of Reads"), at post-IDA sensing counts.
	VerifyReads []ReadOp
	// CorruptedMoves lists kept pages the adjustment corrupted, written
	// back to the new block (Table IV "# of Writes").
	CorruptedMoves []MoveOp
	// KeptPages is the number of pages that stayed in the target block
	// (still valid there after corruption write-backs).
	KeptPages int
}

// DueRefreshes refreshes every fully-programmed block whose age exceeds the
// refresh period, returning one job per block. With a zero refresh period
// it returns nil. Blocks already reprogrammed with the IDA coding are
// force-reclaimed with the original flow on their next cycle, as Section
// III-C requires. A non-nil error means a relocation ran out of space
// mid-refresh (or mid-inline-GC) — an undersized device — and poisons the
// run; jobs completed before the failure are still returned so their timing
// can be charged.
//
// The returned slice is FTL-owned and valid until the next DueRefreshes
// call; each job's op lists stay valid until the job is passed to
// ReleaseRefreshJob.
func (f *FTL) DueRefreshes(now sim.Time) ([]RefreshJob, error) {
	if f.opts.RefreshPeriod == 0 {
		return nil, nil
	}
	clear(f.refreshJobs)
	f.refreshJobs = f.refreshJobs[:0]
	for pl, ps := range f.planes {
		f.closeAgedActive(flash.PlaneID(pl), now)
		blocks := f.planeBlocks(flash.PlaneID(pl))
		for blk := range blocks {
			b := &blocks[blk]
			if blk == ps.active || b.NextStep == 0 {
				continue
			}
			if b.ValidCount == 0 {
				continue // nothing to preserve; GC will reclaim
			}
			if now-b.ProgrammedAt < f.opts.RefreshPeriod {
				continue
			}
			// Keep enough free space in the plane for the moves
			// this refresh will make. The inline GC may reclaim
			// this very block — and free-list reuse may reopen and
			// refill it — so re-check full eligibility (including
			// age) afterwards: the entry may have changed once GC
			// has run.
			if err := f.ensureFree(flash.PlaneID(pl), now); err != nil {
				return f.refreshJobs, err
			}
			if blk == ps.active || b.Retired || b.NextStep == 0 ||
				b.ValidCount == 0 || now-b.ProgrammedAt < f.opts.RefreshPeriod {
				continue
			}
			job, err := f.refreshBlock(flash.PlaneID(pl), blk, now)
			if err != nil {
				return f.refreshJobs, err
			}
			f.refreshJobs = append(f.refreshJobs, job)
		}
	}
	return f.refreshJobs, nil
}

// CloseActiveBlocks retires every plane's open block so warmup-era data
// enters the refresh rotation. Simulation drivers call it once, after
// warmup: an aged device would not have tens of half-open blocks of old
// data.
func (f *FTL) CloseActiveBlocks() {
	for pl, ps := range f.planes {
		if ps.active >= 0 && f.block(flash.PlaneID(pl), ps.active).NextStep > 0 {
			f.closeActive(flash.PlaneID(pl))
		}
	}
}

// StaggerBlockAges spreads the apparent ages of all fully-programmed blocks
// uniformly over one refresh period, so a freshly-prefilled device does not
// refresh everything at once. Call it once, after warmup. It does nothing
// when refresh is disabled.
func (f *FTL) StaggerBlockAges(now sim.Time) {
	if f.opts.RefreshPeriod == 0 {
		return
	}
	for pl, ps := range f.planes {
		blocks := f.planeBlocks(flash.PlaneID(pl))
		for blk := range blocks {
			if blk == ps.active || blocks[blk].NextStep == 0 {
				continue
			}
			age := sim.Time(f.rng.Int63n(int64(f.opts.RefreshPeriod)))
			blocks[blk].ProgrammedAt = now - age
		}
	}
}

// ReleaseRefreshJob hands a charged job's op lists back to the FTL for
// reuse and clears them from the job. The caller must not touch the lists
// afterwards.
func (f *FTL) ReleaseRefreshJob(job *RefreshJob) {
	putList(&f.freeReads, job.Reads)
	putList(&f.freeReads, job.VerifyReads)
	putList(&f.freeMoves, job.Moves)
	putList(&f.freeMoves, job.CorruptedMoves)
	job.Reads, job.Moves, job.VerifyReads, job.CorruptedMoves = nil, nil, nil, nil
}

// takeList pops an empty op list off a free list, or returns nil (append
// then allocates) when the free list is empty.
func takeList[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	ops := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return ops
}

// putList pushes a released op list, emptied, onto a free list.
func putList[T any](free *[][]T, ops []T) {
	if cap(ops) > 0 {
		*free = append(*free, ops[:0])
	}
}

// refreshBlock refreshes one block, choosing the original or IDA-modified
// flow.
func (f *FTL) refreshBlock(pl flash.PlaneID, blk int, now sim.Time) (RefreshJob, error) {
	gb := f.blockID(pl, blk)
	b := &f.blocks[gb]
	// Each op list is taken from the free lists when the job first needs
	// it (appendMove for the move lists), so a list the job leaves empty
	// stays free for another job.
	job := RefreshJob{
		Target:     flash.BlockAddr{Plane: pl, Block: blk},
		ValidPages: b.ValidCount,
		Reads:      takeList(&f.freeReads),
	}
	// Protect the target from inline GC while its pages are in flight.
	f.refreshing = job.Target
	f.refreshingActive = true
	defer func() { f.refreshingActive = false }()
	// Step 1-2 (both flows): read and decode every valid page.
	for page := range f.coords {
		if f.pageValid(gb, page) {
			job.Reads = append(job.Reads, ReadOp{
				Addr:   pageAddr(pl, blk, page),
				Senses: f.sensesAt(f.wordline(gb, page)),
			})
		}
	}

	useIDA := f.opts.IDAEnabled && !b.IDA && !b.Refreshed
	var err error
	if !useIDA {
		err = f.refreshOriginal(pl, blk, now, &job)
	} else {
		err = f.refreshIDA(pl, blk, now, &job)
	}
	if err != nil {
		f.ReleaseRefreshJob(&job)
		return RefreshJob{}, err
	}

	f.stats.Refreshes++
	f.stats.RefreshValidPages += uint64(job.ValidPages)
	f.stats.RefreshMoves += uint64(len(job.Moves))
	if job.IDAApplied {
		f.stats.IDARefreshes++
		f.stats.IDAAdjustedWLs += uint64(job.AdjustedWLs)
		f.stats.IDAVerifyReads += uint64(len(job.VerifyReads))
		f.stats.IDACorruptedWrites += uint64(len(job.CorruptedMoves))
		f.stats.IDAKeptPages += uint64(job.KeptPages)
	}
	return job, nil
}

// refreshOriginal implements Figure 7a: move every valid page to a new
// block. The emptied target block is reclaimed by GC later.
func (f *FTL) refreshOriginal(pl flash.PlaneID, blk int, now sim.Time, job *RefreshJob) error {
	gb := f.blockID(pl, blk)
	for page := range f.coords {
		if !f.pageValid(gb, page) {
			continue
		}
		var err error
		if job.Moves, err = f.appendMove(job.Moves, pl, blk, page, true, now); err != nil {
			return fmt.Errorf("ftl: allocation failed during refresh of p%d/b%d: %w", pl, blk, err)
		}
	}
	// Reset the age so an empty block lingering before GC reclaim does
	// not re-trigger refresh scans.
	b := &f.blocks[gb]
	b.ProgrammedAt = now
	b.Refreshed = true
	return nil
}

// refreshIDA implements Figure 7b: relocate only the non-beneficial pages,
// voltage-adjust the beneficial wordlines, verify the kept pages, and write
// back any pages the adjustment corrupted.
func (f *FTL) refreshIDA(pl flash.PlaneID, blk int, now sim.Time, job *RefreshJob) error {
	gb := f.blockID(pl, blk)
	b := &f.blocks[gb]
	wlBase := gb * f.geom.WordlinesPerBlock
	f.kept = f.kept[:0]
	var err error

	// Step 3: per-wordline Table I decision. Moves happen first (they
	// need the pre-adjustment data), then the adjustment.
	for wl := 0; wl < f.geom.WordlinesPerBlock; wl++ {
		mask := coding.ValidMask(f.wlValid[wlBase+wl])
		if mask == 0 {
			continue // case 8
		}
		if f.opts.IDAOnlyInvalid && mask == coding.MaskAll(f.geom.BitsPerCell) {
			// Ablation mode: fully-valid wordlines (case 1) are
			// relocated like the original refresh instead of being
			// converted.
			for t := coding.PageType(0); int(t) < f.geom.BitsPerCell; t++ {
				if job.Moves, err = f.appendMove(job.Moves, pl, blk, f.pageIndex(wl, t), true, now); err != nil {
					return fmt.Errorf("ftl: allocation failed during IDA refresh of p%d/b%d: %w", pl, blk, err)
				}
			}
			continue
		}
		plan := f.opts.Code.PlanWordline(mask)
		for _, t := range plan.Move {
			if job.Moves, err = f.appendMove(job.Moves, pl, blk, f.pageIndex(wl, t), true, now); err != nil {
				return fmt.Errorf("ftl: allocation failed during IDA refresh of p%d/b%d: %w", pl, blk, err)
			}
		}
		if !plan.Apply {
			continue
		}
		// Step 4: the wordline is reprogrammed; record its new coding.
		// The adjustment's ISPP sweep transfers charge too: its power
		// proxy is the expected per-cell level distance of the merge.
		f.wlKeep[wlBase+wl] = uint8(plan.Keep)
		job.AdjustedWLs++
		f.stats.ProgramPower += f.opts.Code.Merge(plan.Keep).MeanMove()
		// Walk page types in order so the corruption draws below
		// consume randomness deterministically.
		for t := coding.PageType(0); int(t) < f.geom.BitsPerCell; t++ {
			if plan.Keep.Has(t) && f.wlValid[wlBase+wl]&(1<<t) != 0 {
				f.kept = append(f.kept, f.pageIndex(wl, t))
			}
		}
	}

	if job.AdjustedWLs == 0 {
		// Nothing was worth adjusting (every wordline was cases 5-8);
		// the block emptied exactly like an original refresh.
		b.ProgrammedAt = now
		b.Refreshed = true
		return nil
	}

	// Steps 5-8: verify-read every kept page at its post-adjustment
	// sensing count (its wordline's keep mask is recorded above);
	// corrupted ones are written back to the new block.
	job.VerifyReads = takeList(&f.freeReads)
	for _, page := range f.kept {
		job.VerifyReads = append(job.VerifyReads, ReadOp{
			Addr:   pageAddr(pl, blk, page),
			Senses: f.sensesAt(f.wordline(gb, page)),
		})
		if f.opts.ErrorRate > 0 && f.rng.Float64() < f.opts.ErrorRate {
			if job.CorruptedMoves, err = f.appendMove(job.CorruptedMoves, pl, blk, page, true, now); err != nil {
				return fmt.Errorf("ftl: allocation failed during IDA write-back of p%d/b%d: %w", pl, blk, err)
			}
		} else {
			job.KeptPages++
		}
	}

	b.IDA = true
	b.Refreshed = true
	b.ProgrammedAt = now // reclaimed on the next refresh cycle
	job.IDAApplied = true
	return nil
}
