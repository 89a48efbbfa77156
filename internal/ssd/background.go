package ssd

import (
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
)

// Background work (garbage collection and data refresh) is charged on one
// pooled state machine, bgOp, that is the completion sim.Action of every
// acquisition it issues: a per-step closure would be the largest allocation
// source of a warm run, while the pooled machine keeps the steady state
// allocation-free.

// runGC charges the moves and erases of the GC the FTL stage ran at this
// event (stage.go) as background work; a failed collection fails the run.
func (s *SSD) runGC() {
	st := s.stage
	for e := st.next(); e.kind == effGC; e = st.next() {
		s.chargeGC(st.job().gc)
		st.popJob()
	}
	if err := st.jobsEnd(); err != nil {
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

// bgPhase is one phase of a background job: a list of items charged one
// after another.
type bgPhase uint8

const (
	bgCopies    bgPhase = iota // GC page copies: a read, then a write
	bgErase                    // GC victim erase
	bgReads                    // refresh: read every valid page
	bgMoves                    // refresh: write the relocated pages
	bgAdjust                   // refresh: one voltage adjustment per wordline
	bgVerify                   // refresh: verify-read the kept pages
	bgCorrupted                // refresh: write back the corrupted pages
)

// The phase lists, in charge order: a GC copies the victim's valid pages
// and then erases it; a refresh follows Figure 7.
var (
	gcPhases      = []bgPhase{bgCopies, bgErase}
	refreshPhases = []bgPhase{bgReads, bgMoves, bgAdjust, bgVerify, bgCorrupted}
)

// bgAcq is one resource acquisition of an item's chain.
type bgAcq struct {
	r    *sim.Resource
	hold time.Duration
}

// bgOp charges the timed operations of one GC or refresh job. Items run
// sequentially, as the controller executes one step at a time per job;
// jobs on different planes overlap naturally. Each item is a chain of at
// most four acquisitions: a read is a die grant (zero hold) and then a
// channel hold for the sensing and transfer out; a write is a channel
// transfer in and then a die program.
type bgOp struct {
	s      *SSD
	gc     ftl.GCJob      // set for a GC job
	ref    ftl.RefreshJob // set for a refresh job
	phases []bgPhase
	busy   *time.Duration // gcBusy or refreshBusy
	phase  int            // index into phases
	idx    int            // item within the current phase
	chain  [4]bgAcq
	n      int // acquisitions in the current item's chain
	next   int // next acquisition to issue
}

// chargeGC starts a pooled machine for a GC job.
func (s *SSD) chargeGC(job ftl.GCJob) {
	o := s.getBgOp()
	o.gc, o.phases, o.busy = job, gcPhases, &s.gcBusy
	o.advance()
}

// chargeRefresh starts a pooled machine for a refresh job.
func (s *SSD) chargeRefresh(job ftl.RefreshJob) {
	o := s.getBgOp()
	o.ref, o.phases, o.busy = job, refreshPhases, &s.refreshBusy
	o.advance()
}

// Run advances the machine at each acquisition completion: the next
// acquisition of the item's chain, or else the next item.
func (o *bgOp) Run() {
	if o.next < o.n {
		o.issue()
		return
	}
	o.idx++
	o.advance()
}

// advance enters the first pending item at or after the current one and
// issues its first acquisition. A job with nothing left to charge returns
// to the pool.
func (o *bgOp) advance() {
	for !o.load() {
		o.phase++
		o.idx = 0
		if o.phase == len(o.phases) {
			o.s.putBgOp(o)
			return
		}
	}
	o.issue()
}

// issue hands the next acquisition of the chain to its resource.
func (o *bgOp) issue() {
	a := o.chain[o.next]
	o.next++
	a.r.AcquireAction(sim.PrioBackground, a.hold, o)
}

// load lays out the chain of item idx of the current phase and charges its
// busy time up front, when the item begins. It reports false when the phase
// has no such item.
func (o *bgOp) load() bool {
	s, t := o.s, &o.s.cfg.Timing
	o.n, o.next = 0, 0
	switch o.phases[o.phase] {
	case bgCopies:
		if o.idx >= len(o.gc.Moves) {
			return false
		}
		m := o.gc.Moves[o.idx]
		o.read(m.From, m.FromSenses)
		o.write(m)
	case bgErase:
		if o.idx > 0 {
			return false
		}
		o.push(s.planes[o.gc.Victim.Plane].die, t.Erase)
	case bgReads, bgVerify:
		ops := o.ref.Reads
		if o.phases[o.phase] == bgVerify {
			ops = o.ref.VerifyReads
		}
		if o.idx >= len(ops) {
			return false
		}
		o.read(ops[o.idx].Addr, ops[o.idx].Senses)
	case bgMoves, bgCorrupted:
		ops := o.ref.Moves
		if o.phases[o.phase] == bgCorrupted {
			ops = o.ref.CorruptedMoves
		}
		if o.idx >= len(ops) {
			return false
		}
		o.write(ops[o.idx])
	case bgAdjust:
		if o.idx >= o.ref.AdjustedWLs {
			return false
		}
		if o.idx == 0 {
			// The whole adjustment is charged when the phase begins;
			// it still takes one acquisition per wordline so host
			// reads can slip in between adjustments.
			*o.busy += time.Duration(o.ref.AdjustedWLs) * t.VoltAdjust
		}
		o.chain[0] = bgAcq{s.planes[o.ref.Target.Plane].die, t.VoltAdjust}
		o.n = 1
	}
	return true
}

// read appends a page read to the chain: a die grant, then the channel
// held for the sensing and the transfer out.
func (o *bgOp) read(a flash.PageAddr, senses int) {
	s := o.s
	o.push(s.dieOf(a), 0)
	o.push(s.channelOf(a), s.readHold(senses))
}

// write appends a move's destination write to the chain: the transfer in,
// then the program, with the wasted pulses of failed attempts.
func (o *bgOp) write(m ftl.MoveOp) {
	s := o.s
	o.push(s.channelOf(m.To), s.cfg.Timing.Transfer)
	o.push(s.dieOf(m.To), s.cfg.Timing.Program*time.Duration(1+m.FailedPrograms))
}

// push appends one acquisition and charges its hold as busy time.
func (o *bgOp) push(r *sim.Resource, hold time.Duration) {
	o.chain[o.n] = bgAcq{r, hold}
	o.n++
	*o.busy += hold
}

// getBgOp pops a machine from the free list, or allocates the first time.
func (s *SSD) getBgOp() *bgOp {
	if n := len(s.bgOps); n > 0 {
		o := s.bgOps[n-1]
		s.bgOps[n-1] = nil
		s.bgOps = s.bgOps[:n-1]
		return o
	}
	return &bgOp{s: s}
}

// putBgOp recycles a finished machine, handing the job's op lists back to
// the FTL, through the FTL stage, for the next job.
func (s *SSD) putBgOp(o *bgOp) {
	if o.phases[0] == bgCopies {
		s.stage.releaseGC(&o.gc)
	} else {
		s.stage.releaseRefresh(&o.ref)
	}
	*o = bgOp{s: s}
	s.bgOps = append(s.bgOps, o)
}

// refreshScan is the periodic refresh-scan tick as a reusable engine
// Action, so re-arming does not allocate a closure per interval. covered
// tells whether the FTL stage's walk makes this tick's FTL calls: in a
// replay whose stage runs on its own goroutine it does for every tick
// certain to happen, those armed while arrivals remain.
type refreshScan struct {
	s       *SSD
	covered bool
}

// scheduleRefreshScan arms the periodic refresh scan and reports whether it
// did. The scan re-arms itself only while host work remains, so a finished
// simulation drains.
func (s *SSD) scheduleRefreshScan() bool {
	if s.cfg.FTL.RefreshPeriod == 0 || s.scanning {
		return false
	}
	s.scanning = true
	if s.scan == nil {
		s.scan = &refreshScan{s: s}
	}
	s.engine.AfterAction(s.cfg.RefreshScanInterval, s.scan)
	return true
}

// Run executes one scan tick, charging the refreshes and GC the FTL stage
// ran for it. A tick the walk does not cover makes its FTL calls here:
// every tick of an inline replay, and a tick past the walk's last one,
// which happens only because requests are still in flight, once the stage
// goroutine, if any, has finished.
func (t *refreshScan) Run() {
	s := t.s
	st := s.stage
	if !t.covered {
		st.join()
		st.scanTick(s.engine.Now())
	}
	refreshed := false
	for e := st.next(); e.kind == effRefresh; e = st.next() {
		s.chargeRefresh(st.job().ref)
		st.popJob()
		refreshed = true
	}
	if err := st.jobsEnd(); err != nil {
		s.fail(err)
		s.scanning = false
		return
	}
	if refreshed {
		s.runGC()
	}
	e := st.expect(effUsage)
	s.notePeaks(int(e.inUse), int(e.idaBlocks))
	st.pop()
	t.covered = t.covered && s.feeder.remaining() > 0
	if s.feeder.remaining() > 0 || s.inFlight > 0 {
		s.engine.AfterAction(s.cfg.RefreshScanInterval, t)
	} else {
		s.scanning = false
	}
}

// sampleUsage records the block-usage peaks for the Section III-C numbers.
// Only blocks still holding valid data count as in use: emptied blocks
// awaiting GC are reclaimable at any moment and say nothing about the IDA
// coding's space retention.
func (s *SSD) sampleUsage() {
	u := s.f.Usage()
	s.notePeaks(u.InUse+u.Active, u.IDABlocks)
}

// notePeaks raises the usage peaks to one census: blocks in use (valid
// data, or accepting programs) and IDA blocks.
func (s *SSD) notePeaks(inUse, idaBlocks int) {
	s.peakInUse = max(s.peakInUse, inUse)
	s.peakIDA = max(s.peakIDA, idaBlocks)
}
