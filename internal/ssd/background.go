package ssd

import (
	"time"

	"idaflash/internal/ftl"
	"idaflash/internal/sim"
)

// Background work (garbage collection and data refresh) used to be charged
// through per-step closure chains; profiling showed those closures were the
// single largest allocation source of a warm run (~80% of objects). The
// charging now runs on pooled state machines — gcOp and refreshOp — that
// implement sim.Action and issue exactly the same resource acquisitions, in
// the same order, with the same priorities and holds, at the same instants
// as the closure chains did, so runs stay byte-identical while the steady
// state allocates nothing.

// runGC collects any planes below the free-block watermark and charges the
// resulting moves and erases as background work.
func (s *SSD) runGC() {
	jobs, err := s.f.CollectGC(s.engine.Now())
	for _, job := range jobs {
		s.chargeGC(job)
	}
	if err != nil {
		s.fail(err)
	}
}

// collectUncharged runs GC in the zero-time phases (prefill, aging, warmup),
// where no timing is charged: the jobs' move lists go straight back to the
// FTL.
func (s *SSD) collectUncharged() error {
	jobs, err := s.f.CollectGC(0)
	for i := range jobs {
		s.f.ReleaseGCJob(&jobs[i])
	}
	return err
}

// gcOp charges the timed operations of one GC job: each move is a read
// (die), two channel transfers (out and back in), and a program (die); the
// victim erase runs after the moves. Steps chain sequentially, as the
// controller executes one copy at a time per victim. The op itself is the
// completion Action of every acquisition it issues.
type gcOp struct {
	s   *SSD
	job ftl.GCJob
	idx int   // current move; len(job.Moves) selects the erase step
	sub uint8 // acquisition stage within the current step
}

// GC acquisition stages.
const (
	gcStageDieRead uint8 = iota // die grant at the source (zero hold)
	gcStageChanOut              // read hold on the source channel
	gcStageChanIn               // transfer on the destination channel
	gcStageProgram              // program on the destination die
	gcStageErase                // victim erase
)

// chargeGC starts a pooled machine for the job.
func (s *SSD) chargeGC(job ftl.GCJob) {
	o := s.getGCOp()
	o.job = job
	o.idx, o.sub = 0, gcStageDieRead
	o.step()
}

// step enters the current move (or the erase once moves are done): it
// charges the step's busy time up front — as the closure chain did when the
// step began running — and issues the first acquisition.
func (o *gcOp) step() {
	s := o.s
	if o.idx < len(o.job.Moves) {
		m := o.job.Moves[o.idx]
		readHold := s.cfg.Timing.ReadLatency(m.FromSenses) + s.cfg.Timing.Transfer
		program := s.cfg.Timing.Program * time.Duration(1+m.FailedPrograms)
		s.gcBusy += readHold + s.cfg.Timing.Transfer + program
		o.sub = gcStageDieRead
		s.dieOf(m.From).AcquireAction(sim.PrioBackground, 0, o)
		return
	}
	s.gcBusy += s.cfg.Timing.Erase
	o.sub = gcStageErase
	die := s.dies[s.cfg.Geometry.DieOf(o.job.Victim.Plane)]
	die.AcquireAction(sim.PrioBackground, s.cfg.Timing.Erase, o)
}

// Run advances the machine at each acquisition completion.
func (o *gcOp) Run() {
	s := o.s
	switch o.sub {
	case gcStageDieRead:
		m := o.job.Moves[o.idx]
		readHold := s.cfg.Timing.ReadLatency(m.FromSenses) + s.cfg.Timing.Transfer
		o.sub = gcStageChanOut
		s.channelOf(m.From).AcquireAction(sim.PrioBackground, readHold, o)
	case gcStageChanOut:
		m := o.job.Moves[o.idx]
		o.sub = gcStageChanIn
		s.channelOf(m.To).AcquireAction(sim.PrioBackground, s.cfg.Timing.Transfer, o)
	case gcStageChanIn:
		m := o.job.Moves[o.idx]
		program := s.cfg.Timing.Program * time.Duration(1+m.FailedPrograms)
		o.sub = gcStageProgram
		s.dieOf(m.To).AcquireAction(sim.PrioBackground, program, o)
	case gcStageProgram:
		o.idx++
		o.step()
	case gcStageErase:
		s.putGCOp(o)
	}
}

// getGCOp pops a machine from the free list, or allocates the first time.
func (s *SSD) getGCOp() *gcOp {
	if n := len(s.gcOps); n > 0 {
		o := s.gcOps[n-1]
		s.gcOps[n-1] = nil
		s.gcOps = s.gcOps[:n-1]
		return o
	}
	return &gcOp{s: s}
}

// putGCOp recycles a finished machine, handing the job's move list back to
// the FTL for the next job.
func (s *SSD) putGCOp(o *gcOp) {
	s.f.ReleaseGCJob(&o.job)
	o.job = ftl.GCJob{}
	o.idx, o.sub = 0, 0
	s.gcOps = append(s.gcOps, o)
}

// refreshScan is the periodic refresh-scan tick as a reusable engine
// Action, so re-arming does not allocate a closure per interval.
type refreshScan struct {
	s        *SSD
	moreWork func() bool
}

// scheduleRefreshScan arms the periodic refresh scan. The scan re-arms
// itself only while host work remains, so a finished simulation drains.
func (s *SSD) scheduleRefreshScan(moreWork func() bool) {
	if s.cfg.FTL.RefreshPeriod == 0 || s.scanning {
		return
	}
	s.scanning = true
	if s.scan == nil {
		s.scan = &refreshScan{s: s}
	}
	s.scan.moreWork = moreWork
	s.engine.AfterAction(s.cfg.RefreshScanInterval, s.scan)
}

// Run executes one scan tick.
func (t *refreshScan) Run() {
	s := t.s
	jobs, err := s.f.DueRefreshes(s.engine.Now())
	for _, job := range jobs {
		s.chargeRefresh(job)
	}
	if err != nil {
		s.fail(err)
		s.scanning = false
		return
	}
	if len(jobs) > 0 {
		// Refresh moves may have drained free blocks, and
		// emptied blocks are reclaimable.
		s.runGC()
	}
	s.sampleUsage()
	if t.moreWork() {
		s.engine.AfterAction(s.cfg.RefreshScanInterval, t)
	} else {
		s.scanning = false
	}
}

// refreshOp charges the timed operations of one refresh job in the Figure 7
// order: read all valid pages, relocate the moved pages, adjust the target
// wordlines, verify-read the kept pages, write back corrupted pages. Steps
// chain sequentially per job; jobs on different planes overlap naturally.
type refreshOp struct {
	s          *SSD
	job        ftl.RefreshJob
	phase      uint8
	idx        int   // index into the current phase's op list
	sub        uint8 // acquisition stage within the current item
	adjustLeft int   // wordline adjustments still to issue
}

// Refresh phases, in charge order.
const (
	refPhaseReads uint8 = iota
	refPhaseMoves
	refPhaseAdjust
	refPhaseVerify
	refPhaseCorrupted
)

// Read/write acquisition stages within a phase item.
const (
	refStageFirst  uint8 = iota // die grant (reads) / channel transfer (writes)
	refStageSecond              // channel hold (reads) / die program (writes)
)

// chargeRefresh starts a pooled machine for the job.
func (s *SSD) chargeRefresh(job ftl.RefreshJob) {
	o := s.getRefreshOp()
	o.job = job
	o.phase, o.idx, o.sub = refPhaseReads, 0, refStageFirst
	o.step()
}

// step enters the first pending item at or after the current phase,
// charging its busy time up front like the closure chain did. A job with
// nothing to charge completes immediately.
func (o *refreshOp) step() {
	s := o.s
	for {
		switch o.phase {
		case refPhaseReads, refPhaseVerify:
			if op, ok := o.readAt(o.idx); ok {
				hold := s.cfg.Timing.ReadLatency(op.Senses) + s.cfg.Timing.Transfer
				s.refreshBusy += hold
				o.sub = refStageFirst
				s.dieOf(op.Addr).AcquireAction(sim.PrioBackground, 0, o)
				return
			}
		case refPhaseMoves, refPhaseCorrupted:
			if m, ok := o.moveAt(o.idx); ok {
				program := s.cfg.Timing.Program * time.Duration(1+m.FailedPrograms)
				s.refreshBusy += s.cfg.Timing.Transfer + program
				o.sub = refStageFirst
				s.channelOf(m.To).AcquireAction(sim.PrioBackground, s.cfg.Timing.Transfer, o)
				return
			}
		case refPhaseAdjust:
			if o.job.AdjustedWLs > 0 {
				s.refreshBusy += time.Duration(o.job.AdjustedWLs) * s.cfg.Timing.VoltAdjust
				o.adjustLeft = o.job.AdjustedWLs
				o.adjustDie().AcquireAction(sim.PrioBackground, s.cfg.Timing.VoltAdjust, o)
				return
			}
		default:
			s.putRefreshOp(o)
			return
		}
		o.phase++
		o.idx = 0
	}
}

// readAt resolves the idx-th read op of the current read phase.
func (o *refreshOp) readAt(i int) (ftl.ReadOp, bool) {
	ops := o.job.Reads
	if o.phase == refPhaseVerify {
		ops = o.job.VerifyReads
	}
	if i < len(ops) {
		return ops[i], true
	}
	return ftl.ReadOp{}, false
}

// moveAt resolves the idx-th move of the current write phase.
func (o *refreshOp) moveAt(i int) (ftl.MoveOp, bool) {
	ops := o.job.Moves
	if o.phase == refPhaseCorrupted {
		ops = o.job.CorruptedMoves
	}
	if i < len(ops) {
		return ops[i], true
	}
	return ftl.MoveOp{}, false
}

// adjustDie returns the die holding the refresh target block.
func (o *refreshOp) adjustDie() *sim.Resource {
	return o.s.dies[o.s.cfg.Geometry.DieOf(o.job.Target.Plane)]
}

// Run advances the machine at each acquisition completion.
func (o *refreshOp) Run() {
	s := o.s
	switch o.phase {
	case refPhaseReads, refPhaseVerify:
		if o.sub == refStageFirst {
			op, _ := o.readAt(o.idx)
			hold := s.cfg.Timing.ReadLatency(op.Senses) + s.cfg.Timing.Transfer
			o.sub = refStageSecond
			s.channelOf(op.Addr).AcquireAction(sim.PrioBackground, hold, o)
			return
		}
		o.idx++
		o.step()
	case refPhaseMoves, refPhaseCorrupted:
		if o.sub == refStageFirst {
			m, _ := o.moveAt(o.idx)
			program := s.cfg.Timing.Program * time.Duration(1+m.FailedPrograms)
			o.sub = refStageSecond
			s.dieOf(m.To).AcquireAction(sim.PrioBackground, program, o)
			return
		}
		o.idx++
		o.step()
	case refPhaseAdjust:
		o.adjustLeft--
		if o.adjustLeft > 0 {
			// One acquisition per wordline so host reads can slip in
			// between adjustments.
			o.adjustDie().AcquireAction(sim.PrioBackground, s.cfg.Timing.VoltAdjust, o)
			return
		}
		o.phase++
		o.idx = 0
		o.step()
	}
}

// getRefreshOp pops a machine from the free list, or allocates.
func (s *SSD) getRefreshOp() *refreshOp {
	if n := len(s.refreshOps); n > 0 {
		o := s.refreshOps[n-1]
		s.refreshOps[n-1] = nil
		s.refreshOps = s.refreshOps[:n-1]
		return o
	}
	return &refreshOp{s: s}
}

// putRefreshOp recycles a finished machine, handing the job's op lists back
// to the FTL for the next job.
func (s *SSD) putRefreshOp(o *refreshOp) {
	s.f.ReleaseRefreshJob(&o.job)
	o.job = ftl.RefreshJob{}
	o.phase, o.idx, o.sub, o.adjustLeft = 0, 0, 0, 0
	s.refreshOps = append(s.refreshOps, o)
}

// sampleUsage records the block-usage peaks for the Section III-C numbers.
// Only blocks still holding valid data count as in use: emptied blocks
// awaiting GC are reclaimable at any moment and say nothing about the IDA
// coding's space retention.
func (s *SSD) sampleUsage() {
	u := s.f.Usage()
	inUse := u.InUse + u.Active
	if inUse > s.peakInUse {
		s.peakInUse = inUse
	}
	if u.IDABlocks > s.peakIDA {
		s.peakIDA = u.IDABlocks
	}
}
