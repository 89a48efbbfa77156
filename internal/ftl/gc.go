package ftl

import (
	"fmt"

	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// MoveOp is one valid-page migration inside a GC or refresh job: a read of
// the source page (with its sensing count under the source wordline's
// coding) followed by a program of the destination page. It is packed to 20
// bytes, since a job records one per page it moves.
type MoveOp struct {
	From, To PageRef
	// LPN is the moved logical page. Every LPN of a device New accepts
	// fits in 32 bits (ppnFields).
	LPN uint32
	// FromSenses is the source read's sensing count, at most the code's
	// MaxSenses (withDefaults bounds it by Stats.ReadsBySenses).
	FromSenses uint8
	// FailedPrograms counts destination program attempts the fault model
	// failed before the move stuck (their pulses are still charged). Each
	// failure retires a distinct block of the destination plane and the
	// program that sticks needs one more, so the count stays below
	// BlocksPerPlane, which fits in 16 bits (refLimit).
	FailedPrograms uint16
}

// GCJob describes one completed garbage collection: the victim block, the
// page moves performed, and the erase. All mapping state has already been
// updated; the job exists so the SSD model can charge its timing.
type GCJob struct {
	Victim flash.BlockAddr
	Moves  []MoveOp
	// VictimWasIDA reports whether the reclaimed block had been
	// reprogrammed with the IDA coding.
	VictimWasIDA bool
}

// CollectGC drains any inline collections buffered since the last call and
// then runs greedy garbage collection on every plane whose free-block count
// fell below the watermark, returning one job per reclaimed block. The
// victim is the fully-programmed block with the fewest valid pages, ties
// broken toward the lowest erase count (greedy wear-aware, after Bux &
// Iliadis). Planes with nothing reclaimable are left alone; the next write
// to them will fail instead. A non-nil error means a relocation ran out of
// space mid-collection — an undersized device — and poisons the run: the
// caller must stop the simulation, since the victim block is part-moved.
// Jobs completed before the failure are still returned so their timing can
// be charged.
//
// The returned slice is FTL-owned and valid until the next CollectGC call;
// each job's Moves list stays valid until the job is passed to ReleaseGCJob.
func (f *FTL) CollectGC(now sim.Time) ([]GCJob, error) {
	// The inline buffer becomes this call's result; the previous result's
	// backing array becomes the new inline buffer.
	clear(f.gcJobs)
	f.gcJobs, f.pendingGC = f.pendingGC, f.gcJobs[:0]
	for pl := range f.planes {
		for len(f.planes[pl].free) < f.gcFreeBlocks {
			job, ok, err := f.collectPlane(flash.PlaneID(pl), now)
			if err != nil {
				return f.gcJobs, err
			}
			if !ok {
				break
			}
			f.gcJobs = append(f.gcJobs, job)
		}
	}
	return f.gcJobs, nil
}

// ReleaseGCJob hands a charged job's move list back to the FTL for reuse
// and clears it from the job. The caller must not touch the list afterwards.
func (f *FTL) ReleaseGCJob(job *GCJob) {
	putList(&f.freeMoves, job.Moves)
	job.Moves = nil
}

// dropPendingGC empties the inline-GC buffer, recycling the move lists of
// its jobs: they were never handed out, so nothing else holds them.
func (f *FTL) dropPendingGC() {
	for i := range f.pendingGC {
		f.ReleaseGCJob(&f.pendingGC[i])
	}
	clear(f.pendingGC)
	f.pendingGC = f.pendingGC[:0]
}

// ensureFree keeps a plane writable by collecting inline when its free-block
// count falls below the watermark. The jobs are buffered for the next
// CollectGC call so the simulation still charges their timing. Like
// CollectGC, a non-nil error means a mid-collection allocation failure that
// must end the run.
func (f *FTL) ensureFree(pl flash.PlaneID, now sim.Time) error {
	for len(f.planes[pl].free) < f.gcFreeBlocks {
		job, ok, err := f.collectPlane(pl, now)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		f.pendingGC = append(f.pendingGC, job)
	}
	return nil
}

// collectPlane reclaims one block in the plane. It reports false when no
// victim exists or reclaiming would not gain space.
func (f *FTL) collectPlane(pl flash.PlaneID, now sim.Time) (GCJob, bool, error) {
	ps := f.planes[pl]
	victim := -1
	var vb *BlockState
	blocks := f.planeBlocks(pl)
	for blk := range blocks {
		b := &blocks[blk]
		if blk == ps.active || b.Retired || b.NextStep == 0 {
			continue // retired, erased, or still accepting programs
		}
		if f.refreshingActive && f.refreshing.Plane == pl && f.refreshing.Block == blk {
			continue // mid-refresh; the refresh flow owns this block
		}
		if vb == nil ||
			b.ValidCount < vb.ValidCount ||
			(b.ValidCount == vb.ValidCount && b.EraseCount < vb.EraseCount) {
			victim, vb = blk, b
		}
	}
	if vb == nil {
		return GCJob{}, false, nil
	}
	// Reclaiming a block whose valid pages would fill a whole new block
	// gains nothing; stop rather than churn.
	if vb.ValidCount >= len(f.order) {
		return GCJob{}, false, nil
	}
	// The victim's valid pages relocate within this plane; decline when
	// they would not fit in the plane's remaining space (the plane then
	// recovers as refresh drains its blocks elsewhere).
	space := len(ps.free) * len(f.order)
	if ps.active >= 0 {
		space += len(f.order) - blocks[ps.active].NextStep
	}
	if vb.ValidCount > space {
		return GCJob{}, false, nil
	}
	job := GCJob{
		Victim:       flash.BlockAddr{Plane: pl, Block: victim},
		VictimWasIDA: vb.IDA,
	}
	gb := f.blockID(pl, victim)
	for page := range f.coords {
		if !f.pageValid(gb, page) {
			continue
		}
		var err error
		if job.Moves, err = f.appendMove(job.Moves, pl, victim, page, false, now); err != nil {
			// The plane is below watermark but still has its active
			// block; running out mid-GC means the device is
			// undersized. The victim is part-moved, so the run must
			// stop here.
			f.ReleaseGCJob(&job)
			return GCJob{}, false, fmt.Errorf("ftl: allocation failed during GC of p%d/b%d: %w", pl, victim, err)
		}
	}
	f.eraseBlock(pl, victim)
	f.stats.GCJobs++
	f.stats.GCMoves += uint64(len(job.Moves))
	if job.VictimWasIDA {
		f.stats.GCIDAVictims++
	}
	return job, true, nil
}
