package ftl

import (
	"fmt"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// PageProgram describes one physical page program the device must perform.
type PageProgram struct {
	Addr flash.PageAddr
	LPN  LPN
	// FailedPrograms counts program attempts the fault model failed before
	// this one stuck; the device model charges their wasted program pulses.
	FailedPrograms int
}

// Write maps the LPN to a fresh physical page, invalidating any previous
// copy, and returns the program operation. now stamps the block age used by
// the refresh policy. Write fails, changing nothing, for an LPN outside
// [0, capacity); otherwise it fails only when the device is truly out of
// space (no free block and nothing reclaimable), which indicates a mis-sized
// experiment rather than a runtime condition to retry.
func (f *FTL) Write(lpn LPN, now sim.Time) (PageProgram, error) {
	if !f.l2p.inRange(lpn) {
		return PageProgram{}, fmt.Errorf("ftl: write of LPN %d outside the device's %d pages", lpn, len(f.l2p.dense))
	}
	var a flash.PageAddr
	var failed int
	var err error
	// CWDP striping with space-aware fallback: a transiently full plane
	// is skipped in favour of the next one with room.
	for try := 0; try < len(f.cwdp); try++ {
		pl := f.nextAllocPlane()
		if gcErr := f.ensureFree(pl, now); gcErr != nil {
			return PageProgram{}, gcErr
		}
		var n int
		a, n, err = f.claimPage(now, pl)
		failed += n
		if err == nil {
			break
		}
	}
	if err != nil {
		return PageProgram{}, err
	}
	if old, ok := f.l2p.get(lpn); ok {
		f.invalidate(f.addrOf(old))
	}
	f.mapPage(lpn, a)
	f.stats.HostWrites++
	return PageProgram{Addr: a, LPN: lpn, FailedPrograms: failed}, nil
}

// mapPage points the LPN at the freshly programmed page a.
func (f *FTL) mapPage(lpn LPN, a flash.PageAddr) {
	f.l2p.set(lpn, f.packPPN(a.Plane, a.Block, a.Page))
	gb := f.blockID(a.Plane, a.Block)
	w, t := f.wordline(gb, a.Page)
	f.wlValid[w] |= 1 << t
	f.rmap[gb*len(f.coords)+a.Page] = uint32(lpn)
	f.blocks[gb].ValidCount++
}

// claimPage allocates the next page of the plane and runs the program past
// the fault model. A failed program grows the block bad: the block is closed
// immediately (no further programs land on it), it is retired at its
// eventual erase, and the write remaps to a page of a fresh block. Data
// already on a grown-bad block stays readable — program failures damage the
// page being programmed, not its neighbours — so its valid pages drain
// through the normal GC/refresh paths. The failed-attempt count is returned
// so the device model can charge the wasted program pulses.
func (f *FTL) claimPage(now sim.Time, pl flash.PlaneID) (flash.PageAddr, int, error) {
	failed := 0
	for {
		a, err := f.allocate(now, pl)
		if err != nil {
			return a, failed, err
		}
		if f.opts.Faults == nil {
			f.chargeProgram(1 + failed)
			return a, failed, nil
		}
		b := f.block(pl, a.Block)
		if !f.opts.Faults.ProgramFails(a, b.EraseCount) {
			f.chargeProgram(1 + failed)
			return a, failed, nil
		}
		failed++
		f.stats.ProgramFailures++
		b.Bad = true
		if f.planes[pl].active == a.Block {
			f.closeActive(pl)
		}
	}
}

// Trim invalidates the LPN without writing a replacement. An unmapped or
// out-of-range LPN is a no-op.
func (f *FTL) Trim(lpn LPN) {
	if old, ok := f.l2p.get(lpn); ok {
		f.invalidate(f.addrOf(old))
		f.l2p.remove(lpn)
	}
}

// nextAllocPlane returns the plane the next host write should land on,
// advancing the CWDP stripe cursor.
func (f *FTL) nextAllocPlane() flash.PlaneID {
	p := f.cwdp[f.allocCursor]
	f.allocCursor++
	if f.allocCursor == len(f.cwdp) {
		f.allocCursor = 0
	}
	return p
}

// allocate claims the next page of the plane's active block, opening a new
// block when needed. An aged active block is force-closed first (see
// closeAgedActive).
func (f *FTL) allocate(now sim.Time, pl flash.PlaneID) (flash.PageAddr, error) {
	ps := f.planes[pl]
	f.closeAgedActive(pl, now)
	if ps.active < 0 {
		if err := f.openBlock(now, pl); err != nil {
			return flash.PageAddr{}, err
		}
	}
	b := f.block(pl, ps.active)
	a := pageAddr(pl, ps.active, f.order[b.NextStep])
	b.NextStep++
	if b.NextStep == len(f.order) {
		f.closeActive(pl)
	}
	return a, nil
}

// closeAgedActive retires the plane's active block once its oldest data has
// been open for half the refresh period, so slowly-filling planes still feed
// the refresher (data retention is about page age, not block occupancy).
// Without a refresh period nothing closes early. Only a plane with at least
// 2 free blocks retires an aged block: closing a partial block strands its
// unwritten pages, which a plane under space pressure cannot afford.
func (f *FTL) closeAgedActive(pl flash.PlaneID, now sim.Time) {
	ps := f.planes[pl]
	limit := f.opts.RefreshPeriod / 2
	if ps.active < 0 || limit <= 0 || len(ps.free) < 2 {
		return
	}
	if b := f.block(pl, ps.active); b.NextStep > 0 && now-b.OpenedAt >= limit {
		f.closeActive(pl)
	}
}

// closeActive retires the plane's active block. The retention clock starts
// at the block's first program, which is when its oldest data was written.
func (f *FTL) closeActive(pl flash.PlaneID) {
	ps := f.planes[pl]
	b := f.block(pl, ps.active)
	b.ProgrammedAt = b.OpenedAt
	ps.active = -1
}

// openBlock pops a free block and makes it the plane's active block.
func (f *FTL) openBlock(now sim.Time, pl flash.PlaneID) error {
	ps := f.planes[pl]
	if len(ps.free) == 0 {
		return fmt.Errorf("ftl: plane %d out of free blocks (undersized device or GC starved)", pl)
	}
	blk := ps.free[len(ps.free)-1]
	ps.free = ps.free[:len(ps.free)-1]
	b := f.block(pl, blk)
	if b.NextStep != 0 {
		return fmt.Errorf("ftl: free block p%d/b%d not erased (step %d)", pl, blk, b.NextStep)
	}
	b.OpenedAt = now
	b.ProgrammedAt = now
	ps.active = blk
	return nil
}

// invalidate clears the valid bit of the page at a.
func (f *FTL) invalidate(a flash.PageAddr) {
	gb := f.blockID(a.Plane, a.Block)
	w, t := f.wordline(gb, a.Page)
	if f.wlValid[w]&(1<<t) == 0 {
		panic(fmt.Sprintf("ftl: invalidating already-invalid page %v", a))
	}
	f.wlValid[w] &^= 1 << t
	f.blocks[gb].ValidCount--
	f.stats.Invalidations++
}

// eraseBlock wipes a block and returns it to the free list — unless the
// block is grown bad (an earlier program failed there) or the erase itself
// fails, in which case the block is retired instead.
func (f *FTL) eraseBlock(pl flash.PlaneID, blk int) {
	gb := f.blockID(pl, blk)
	b := &f.blocks[gb]
	if b.ValidCount != 0 {
		panic(fmt.Sprintf("ftl: erasing block p%d/b%d with %d valid pages", pl, blk, b.ValidCount))
	}
	b.EraseCount++
	if b.Bad {
		f.retireBlock(gb)
		return
	}
	if f.opts.Faults != nil &&
		f.opts.Faults.EraseFails(flash.BlockAddr{Plane: pl, Block: blk}, b.EraseCount) {
		f.stats.EraseFailures++
		f.retireBlock(gb)
		return
	}
	f.wipe(gb)
	f.planes[pl].free = append(f.planes[pl].free, blk)
	f.stats.Erases++
}

// retireBlock takes a block permanently out of service. The entry stays in
// the block table (wear stats still see it) but never rejoins the free
// list; GC, refresh, and allocation all skip it from here on.
func (f *FTL) retireBlock(gb int) {
	f.blocks[gb].Retired = true
	f.wipe(gb)
	f.stats.RetiredBlocks++
}

// wipe returns a block to the unprogrammed state: no program step taken,
// no coding flags, and zero wordline masks and reverse-map entries (the
// state Snapshot leaves out for every block with NextStep 0).
func (f *FTL) wipe(gb int) {
	b := &f.blocks[gb]
	b.NextStep, b.IDA, b.Refreshed = 0, false, false
	valid, keep, rmap := f.blockTables(gb)
	clear(valid)
	clear(keep)
	clear(rmap)
}

// chargeProgram accumulates the coding scheme's power/wear proxies for the
// given number of program pulses (the successful one plus any attempts the
// fault model failed — those transferred charge into the now-bad block too).
func (f *FTL) chargeProgram(attempts int) {
	f.stats.ProgramPower += float64(attempts) * f.pagePower
	f.stats.ProgrammedCells += float64(attempts) * f.pageCells
}

// relocateGlobal moves the valid page at src to the next page of the global
// CWDP write stripe, like a host write. The data refresh relocates this way:
// its pages round-trip through the controller for ECC correction anyway, so
// they re-enter the normal allocation stream and interleave with ongoing
// host writes rather than clustering into one plane's block. A transiently
// full plane is skipped in favour of the next one with space.
func (f *FTL) relocateGlobal(src flash.PageAddr, now sim.Time) (PageProgram, error) {
	var err error
	for try := 0; try < len(f.cwdp); try++ {
		pl := f.nextAllocPlane()
		if gcErr := f.ensureFree(pl, now); gcErr != nil {
			return PageProgram{}, gcErr
		}
		var prog PageProgram
		prog, err = f.relocateTo(src, now, pl)
		if err == nil {
			return prog, nil
		}
	}
	return PageProgram{}, err
}

// appendMove relocates the valid page at (pl, blk, page) and appends its
// move record to ops: within the page's plane for GC (copyback-style), along
// the global write stripe for refresh (global). The source is sensed under
// its wordline's current coding. Every MoveOp is built here, so each carries
// the program attempts that failed before the copy stuck. A job's first move
// takes its list with room for every page still valid in the source block,
// the most the job can move from it. On error ops comes back unchanged.
func (f *FTL) appendMove(ops []MoveOp, pl flash.PlaneID, blk, page int, global bool, now sim.Time) ([]MoveOp, error) {
	src := pageAddr(pl, blk, page)
	gb := f.blockID(pl, blk)
	senses := f.sensesAt(f.wordline(gb, page))
	valid := f.blocks[gb].ValidCount
	var prog PageProgram
	var err error
	if global {
		prog, err = f.relocateGlobal(src, now)
	} else {
		prog, err = f.relocateTo(src, now, pl)
	}
	if err != nil {
		return ops, err
	}
	if ops == nil {
		ops = takeList(&f.freeMoves, valid)
	}
	return append(ops, MoveOp{
		From: pageRef(pl, blk, page), To: pageRef(prog.Addr.Plane, prog.Addr.Block, prog.Addr.Page),
		LPN: uint32(prog.LPN), FromSenses: uint8(senses), FailedPrograms: uint16(prog.FailedPrograms),
	}), nil
}

// relocateTo moves the valid page at src into the target plane. The
// destination is allocated before the source is invalidated, so a failed
// allocation leaves the source mapping intact.
func (f *FTL) relocateTo(src flash.PageAddr, now sim.Time, target flash.PlaneID) (PageProgram, error) {
	lpn := LPN(f.rmap[f.blockID(src.Plane, src.Block)*len(f.coords)+src.Page])
	dst, failed, err := f.claimPage(now, target)
	if err != nil {
		return PageProgram{}, err
	}
	f.invalidate(src)
	f.mapPage(lpn, dst)
	return PageProgram{Addr: dst, LPN: lpn, FailedPrograms: failed}, nil
}

// sensesAt returns the sensing count needed to read page type t of the
// device-wide wordline w under the wordline's current coding mode. It panics
// if the page was merged away by its wordline's IDA adjustment: reading such
// a page is a logic error in the FTL, not a recoverable condition.
func (f *FTL) sensesAt(w int, t coding.PageType) int {
	keep := f.wlKeep[w]
	s := f.senses[int(keep)<<typeBits|int(t)]
	if s == droppedPage {
		panic(fmt.Sprintf("ftl: reading page %v of an IDA wordline that kept only %b", t, keep))
	}
	return int(s)
}
