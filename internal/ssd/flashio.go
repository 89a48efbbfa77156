package ssd

import (
	"fmt"
	"time"

	"idaflash/internal/ecc"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/telemetry"
)

// Flash command issue stage: dispatched page operations become timed
// acquisitions of the die and channel resources. Which queued command a
// busy die or channel serves next is its scheduling policy's decision
// (sim.SchedulerConfig); this stage only issues and chains the commands.
//
// Steady-state page flow runs on pooled operation structs (readOp/writeOp)
// that implement sim.Action: one struct carries a page operation through its
// die/channel/decode stages and returns to the device's free list when the
// page completes, so a sensing round costs no closure allocations. Only the
// cold fault-recovery paths (faults.go) still capture closures.

// FlashStats instruments the flash command issue stage.
type FlashStats struct {
	// ReadCommands counts sensing+transfer rounds issued for host reads,
	// including retry rounds.
	ReadCommands uint64
	// RetryRounds counts the subset of ReadCommands that were read
	// retries after a failed hard decode.
	RetryRounds uint64
	// ProgramCommands counts host page programs issued.
	ProgramCommands uint64
}

// readOp stages. A read round is die wait -> channel hold (sensing +
// transfer) -> ECC decode, looping back for retry rounds; unmapped reads
// shortcut straight to a fixed-latency completion.
const (
	readStageDie      = iota // die went idle; acquire the channel
	readStageChannel         // channel hold done; account phases, start decode
	readStageDecode          // decode done; retry or complete the page
	readStageUnmapped        // fixed-latency unmapped-read completion
)

// readOp carries one logical page read through its rounds. It is pooled on
// the SSD and recycled when the page completes.
type readOp struct {
	s           *SSD
	info        ftl.ReadInfo
	req         *request
	retriesLeft int
	first       bool
	extra       time.Duration // injected latency spike (fault scenarios)
	hold        time.Duration
	issued      sim.Time
	stage       int
}

// getReadOp pops a pooled readOp or allocates the pool's first few.
func (s *SSD) getReadOp() *readOp {
	if n := len(s.readOps); n > 0 {
		op := s.readOps[n-1]
		s.readOps = s.readOps[:n-1]
		return op
	}
	return &readOp{s: s}
}

// putReadOp recycles a completed readOp, dropping its references.
func (s *SSD) putReadOp(op *readOp) {
	op.info = ftl.ReadInfo{}
	op.req = nil
	s.readOps = append(s.readOps, op)
}

// readPage services one logical page read, resolved by the FTL stage into
// e: memory access on the die (with the sensing count the wordline's
// current coding dictates), transfer on the channel, ECC decode, plus any
// read-retry rounds.
func (s *SSD) readPage(e *effect, lpn ftl.LPN, req *request) {
	if !e.mapped {
		// Reads of never-written data are served like a fastest-page
		// read (the controller returns zeroes after a mapping miss;
		// we charge a conservative full page read).
		s.stages.Dispatch.UnmappedPages++
		now := s.engine.Now()
		flash := s.readHold(1)
		req.sp.AddPhase(telemetry.StageFlash, now, now+flash)
		req.sp.AddPhase(telemetry.StageECC, now+flash, now+flash+s.cfg.ECC.DecodeLatency)
		op := s.getReadOp()
		op.req = req
		op.stage = readStageUnmapped
		s.engine.AfterAction(flash+s.cfg.ECC.DecodeLatency, op)
		return
	}
	if s.inj != nil {
		s.issueRead(lpn, e.read, req, 0)
		return
	}
	s.startRead(e.read, req, int(e.retries), 0)
}

// startRead begins the first sensing round of a resolved page read.
func (s *SSD) startRead(info ftl.ReadInfo, req *request, retries int, extra time.Duration) {
	op := s.getReadOp()
	op.info = info
	op.req = req
	op.retriesLeft = retries
	op.first = true
	op.extra = extra
	op.round()
}

// eccParams returns the decode/retry parameters of one resolved read on a
// device whose parameters are params.
func eccParams(params ecc.Params, info ftl.ReadInfo) ecc.Params {
	if info.IDA {
		// Merged wordlines occupy half the voltage states, widening
		// the read margins and cutting the raw bit error rate; their
		// hard decodes fail far less often.
		params = params.WithFailScale(idaRetryFailScale)
	}
	return params
}

// idaRetryFailScale scales the hard-decode failure probability for pages on
// IDA-reprogrammed wordlines: doubling the inter-state margin cuts RBER
// superlinearly (Cai et al. characterize roughly an order of magnitude per
// doubled margin; 0.25 is conservative).
const idaRetryFailScale = 0.25

// round performs one sensing+transfer+decode round; failed decodes trigger
// retry rounds that re-sense the wordline's read levels with adjusted
// voltages (Section V-F): a retry costs one extra pass over the page's read
// voltages plus a soft-bit transfer, so pages with fewer read levels —
// IDA-reprogrammed wordlines — also retry more cheaply.
//
// Following the DiskSim+SSD model the paper builds on, the channel is
// occupied for the whole memory access plus the data transfer (command
// issue, busy polling, data out — there is no cache-read pipelining), which
// is what couples queueing delay to the sensing count and lets a sensing
// reduction translate into response-time gains under load. The read first
// waits for its die to go idle (it cannot sense a die that is mid-program
// or mid-erase) without holding it. op.extra lengthens the first round's
// hold by an injected latency spike (zero outside fault scenarios).
func (op *readOp) round() {
	s := op.s
	if op.first {
		op.hold = s.readHold(op.info.Senses) + op.extra
	} else {
		op.hold = s.cfg.Timing.ExtraSenseLatency(op.info.Senses) + s.cfg.Timing.Transfer/2
		s.stages.Flash.RetryRounds++
	}
	s.stages.Flash.ReadCommands++
	op.issued = s.engine.Now()
	op.stage = readStageDie
	s.dieOf(op.info.Addr).AcquireAction(sim.PrioHostRead, 0, op)
}

// Run advances the read through its next stage; the engine and the
// die/channel resources invoke it as the op's holds complete.
func (op *readOp) Run() {
	s := op.s
	switch op.stage {
	case readStageDie:
		op.stage = readStageChannel
		s.channelOf(op.info.Addr).AcquireAction(sim.PrioHostRead, op.hold, op)
	case readStageChannel:
		// This runs at the completion instant; the channel started
		// serving hold earlier, and everything before that was
		// die/channel queueing.
		done := s.engine.Now()
		op.req.sp.AddPhase(telemetry.StageQueue, op.issued, done-op.hold)
		op.req.sp.AddPhase(telemetry.StageFlash, done-op.hold, done)
		op.req.sp.AddPhase(telemetry.StageECC, done, done+s.cfg.ECC.DecodeLatency)
		op.stage = readStageDecode
		s.engine.AfterAction(s.cfg.ECC.DecodeLatency, op)
	case readStageDecode:
		if op.retriesLeft > 0 {
			op.retriesLeft--
			op.first = false
			op.extra = 0
			op.round()
			return
		}
		req := op.req
		s.putReadOp(op)
		s.pageDone(req)
	case readStageUnmapped:
		req := op.req
		s.putReadOp(op)
		s.pageDone(req)
	}
}

// writeOp stages: channel transfer to the chip, then the program on the die.
const (
	writeStageChannel = iota // transfer done; acquire the die
	writeStageDie            // program done; complete the page
)

// writeOp carries one page program through its channel and die holds. It is
// pooled on the SSD and recycled when the page completes.
type writeOp struct {
	s        *SSD
	prog     ftl.PageProgram
	req      *request
	transfer time.Duration
	program  time.Duration
	issued   sim.Time
	sent     sim.Time
	stage    int
}

func (s *SSD) getWriteOp() *writeOp {
	if n := len(s.writeOps); n > 0 {
		op := s.writeOps[n-1]
		s.writeOps = s.writeOps[:n-1]
		return op
	}
	return &writeOp{s: s}
}

func (s *SSD) putWriteOp(op *writeOp) {
	op.prog = ftl.PageProgram{}
	op.req = nil
	s.writeOps = append(s.writeOps, op)
}

// writePage services one logical page write, mapped by the FTL stage into
// e: transfer to the chip on the channel, then the program on the die.
func (s *SSD) writePage(e *effect, req *request) {
	if e.err != nil {
		// Out of space mid-run: a sizing bug. Fail the run — the request
		// in flight never completes, but the engine stops after this
		// event and Run returns the error with partial stats.
		s.fail(fmt.Errorf("ssd: %w", e.err))
		return
	}
	s.issueProgram(e.prog, req, 0)
}

// issueProgram issues one page program, retrying around die/channel outages
// (faults.go). A program the FTL had to remap (FailedPrograms > 0) charges
// the wasted pulses as extra die time.
func (s *SSD) issueProgram(prog ftl.PageProgram, req *request, attempt int) {
	if s.checkWriteOutage(prog, req, attempt) {
		return
	}
	s.stages.Flash.ProgramCommands++
	op := s.getWriteOp()
	op.prog = prog
	op.req = req
	op.transfer = s.cfg.Timing.Transfer
	op.program = s.cfg.Timing.Program * time.Duration(1+prog.FailedPrograms)
	op.issued = s.engine.Now()
	op.stage = writeStageChannel
	s.channelOf(prog.Addr).AcquireAction(sim.PrioHostWrite, op.transfer, op)
}

// Run advances the program through its next stage.
func (op *writeOp) Run() {
	s := op.s
	switch op.stage {
	case writeStageChannel:
		op.sent = s.engine.Now()
		op.req.sp.AddPhase(telemetry.StageQueue, op.issued, op.sent-op.transfer)
		op.req.sp.AddPhase(telemetry.StageFlash, op.sent-op.transfer, op.sent)
		op.stage = writeStageDie
		s.dieOf(op.prog.Addr).AcquireAction(sim.PrioHostWrite, op.program, op)
	case writeStageDie:
		done := s.engine.Now()
		op.req.sp.AddPhase(telemetry.StageQueue, op.sent, done-op.program)
		op.req.sp.AddPhase(telemetry.StageFlash, done-op.program, done)
		req := op.req
		s.putWriteOp(op)
		s.pageDone(req)
	}
}
