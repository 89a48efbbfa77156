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
	for pl := range f.planes {
		ps := f.planes[pl]
		// Retire an active block whose oldest data has aged past the
		// open-age limit, so slowly-filling planes still refresh.
		// Skipped under space pressure (see allocate).
		if ps.active >= 0 && f.opts.MaxOpenBlockAge > 0 && len(ps.free) >= 2 {
			if b := ps.blocks[ps.active]; b.nextStep > 0 && now-b.openedAt >= f.opts.MaxOpenBlockAge {
				f.closeActive(flash.PlaneID(pl))
			}
		}
		for blk, b := range ps.blocks {
			if b == nil || blk == ps.active || b.nextStep == 0 {
				continue
			}
			if b.validCount == 0 {
				continue // nothing to preserve; GC will reclaim
			}
			if now-b.programmedAt < f.opts.RefreshPeriod {
				continue
			}
			// Keep enough free space in the plane for the moves
			// this refresh will make. The inline GC may reclaim
			// this very block — and free-list reuse may reopen and
			// refill it — so re-read the entry and re-check full
			// eligibility (including age) afterwards; the loop
			// variable b is stale once GC has run.
			if err := f.ensureFree(flash.PlaneID(pl), now); err != nil {
				return f.refreshJobs, err
			}
			b = ps.blocks[blk]
			if b == nil || blk == ps.active || b.retired || b.nextStep == 0 ||
				b.validCount == 0 || now-b.programmedAt < f.opts.RefreshPeriod {
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
		if ps.active >= 0 && ps.blocks[ps.active].nextStep > 0 {
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
	for _, ps := range f.planes {
		for blk, b := range ps.blocks {
			if b == nil || blk == ps.active || b.nextStep == 0 {
				continue
			}
			age := sim.Time(f.rng.Int63n(int64(f.opts.RefreshPeriod)))
			b.programmedAt = now - age
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
	b := f.planes[pl].blocks[blk]
	job := RefreshJob{
		Target:         flash.BlockAddr{Plane: pl, Block: blk},
		ValidPages:     b.validCount,
		Reads:          takeList(&f.freeReads),
		Moves:          takeList(&f.freeMoves),
		VerifyReads:    takeList(&f.freeReads),
		CorruptedMoves: takeList(&f.freeMoves),
	}
	// Protect the target from inline GC while its pages are in flight.
	f.refreshing = job.Target
	f.refreshingActive = true
	defer func() { f.refreshingActive = false }()
	// Step 1-2 (both flows): read and decode every valid page.
	for page := 0; page < f.geom.PagesPerBlock(); page++ {
		if b.valid[page] {
			job.Reads = append(job.Reads, ReadOp{
				Addr:   pageAddr(pl, blk, page),
				Senses: f.sensesAt(b, page),
			})
		}
	}

	useIDA := f.opts.IDAEnabled && !b.ida && !b.refreshed
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
	b := f.planes[pl].blocks[blk]
	for page := 0; page < f.geom.PagesPerBlock(); page++ {
		if !b.valid[page] {
			continue
		}
		var err error
		if job.Moves, err = f.appendMove(job.Moves, pl, blk, page, true, now); err != nil {
			return fmt.Errorf("ftl: allocation failed during refresh of p%d/b%d: %w", pl, blk, err)
		}
	}
	// Reset the age so an empty block lingering before GC reclaim does
	// not re-trigger refresh scans.
	b.programmedAt = now
	b.refreshed = true
	return nil
}

// keptPage is a page an IDA refresh keeps in place through the voltage
// adjustment.
type keptPage struct {
	page   int
	senses int // post-adjustment sensing count
}

// refreshIDA implements Figure 7b: relocate only the non-beneficial pages,
// voltage-adjust the beneficial wordlines, verify the kept pages, and write
// back any pages the adjustment corrupted.
func (f *FTL) refreshIDA(pl flash.PlaneID, blk int, now sim.Time, job *RefreshJob) error {
	b := f.planes[pl].blocks[blk]
	f.kept = f.kept[:0]
	var err error

	// Step 3: per-wordline Table I decision. Moves happen first (they
	// need the pre-adjustment data), then the adjustment.
	for wl := 0; wl < f.geom.WordlinesPerBlock; wl++ {
		mask := f.wlValidMask(b, wl)
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
		b.wlKeep[wl] = plan.Keep
		job.AdjustedWLs++
		f.stats.ProgramPower += f.opts.Code.Merge(plan.Keep).MeanMove()
		// Walk page types in order (not the KeptSenses map) so the
		// corruption draws below consume randomness deterministically.
		for t := coding.PageType(0); int(t) < f.geom.BitsPerCell; t++ {
			if !plan.Keep.Has(t) {
				continue
			}
			page := f.pageIndex(wl, t)
			if b.valid[page] {
				f.kept = append(f.kept, keptPage{page: page, senses: plan.KeptSenses[t]})
			}
		}
	}

	if job.AdjustedWLs == 0 {
		// Nothing was worth adjusting (every wordline was cases 5-8);
		// the block emptied exactly like an original refresh.
		b.programmedAt = now
		b.refreshed = true
		return nil
	}

	// Steps 5-8: verify-read every kept page; corrupted ones are written
	// back to the new block.
	for _, kp := range f.kept {
		job.VerifyReads = append(job.VerifyReads, ReadOp{
			Addr:   pageAddr(pl, blk, kp.page),
			Senses: kp.senses,
		})
		if f.opts.ErrorRate > 0 && f.rng.Float64() < f.opts.ErrorRate {
			if job.CorruptedMoves, err = f.appendMove(job.CorruptedMoves, pl, blk, kp.page, true, now); err != nil {
				return fmt.Errorf("ftl: allocation failed during IDA write-back of p%d/b%d: %w", pl, blk, err)
			}
		} else {
			job.KeptPages++
		}
	}

	b.ida = true
	b.refreshed = true
	b.programmedAt = now // reclaimed on the next refresh cycle
	job.IDAApplied = true
	return nil
}
