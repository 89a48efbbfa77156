package ssd

import (
	"time"

	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/telemetry"
	"idaflash/internal/workload"
)

// The request path through the device is a pipeline of three stages:
//
//	host dispatch (this file) -> scheduler (per-die/channel arbitration)
//	  -> flash command issue (flashio.go)
//
// Requests replay open loop, as in the paper: each one enters service the
// instant it arrives. This file holds the first stage: submit splits a host
// request into logical pages and hands each to the FTL, and pageDone closes
// the loop with the response accounting.

// StageStats bundles the per-stage instrumentation for Results.
type StageStats struct {
	Admission AdmissionStats
	Dispatch  DispatchStats
	Flash     FlashStats
}

// Add returns the field-wise sum of two stage snapshots (array merging).
func (s StageStats) Add(o StageStats) StageStats {
	s.Admission.Admitted += o.Admission.Admitted
	s.Admission.HostQueued += o.Admission.HostQueued
	s.Admission.HostQueueWait += o.Admission.HostQueueWait
	if o.Admission.MaxHostQueue > s.Admission.MaxHostQueue {
		s.Admission.MaxHostQueue = o.Admission.MaxHostQueue
	}
	s.Dispatch.ReadPages += o.Dispatch.ReadPages
	s.Dispatch.WritePages += o.Dispatch.WritePages
	s.Dispatch.UnmappedPages += o.Dispatch.UnmappedPages
	s.Flash.ReadCommands += o.Flash.ReadCommands
	s.Flash.RetryRounds += o.Flash.RetryRounds
	s.Flash.ProgramCommands += o.Flash.ProgramCommands
	return s
}

// AdmissionStats counts the requests that entered service. The device has
// no host-side queue, so the three host-queue fields are always zero; they
// stay because pinned Results JSON digests and the benchmark's
// ssd.host_queue_wait_ms probe read them.
type AdmissionStats struct {
	// Admitted counts requests that entered service.
	Admitted uint64
	// HostQueued is always zero (no host-side queue); kept for the
	// Results JSON shape.
	HostQueued uint64
	// HostQueueWait is always zero (no host-side queue); kept for the
	// Results JSON shape and the benchmark probe that reads it.
	HostQueueWait time.Duration
	// MaxHostQueue is always zero (no host-side queue); kept for the
	// Results JSON shape.
	MaxHostQueue int
}

// DispatchStats instruments the translation of host requests into pages.
type DispatchStats struct {
	// ReadPages and WritePages count the logical pages dispatched.
	ReadPages  uint64
	WritePages uint64
	// UnmappedPages counts read pages that had no mapping (reads of
	// never-written data); Results.UnmappedReads reports it too.
	UnmappedPages uint64
}

// request tracks one in-flight host request. Requests are pooled on the
// SSD: pageDone recycles the struct once its last page completes, so the
// steady-state request flow reuses a bounded set of them (one per in-flight
// request at the peak).
type request struct {
	arrived sim.Time
	pages   int // pages still outstanding
	read    bool
	size    int
	// failed marks a request at least one of whose pages exhausted the
	// fault-retry budget; it completes normally but counts as failed.
	failed bool
	// sp is the request's telemetry span; nil when telemetry is disabled
	// or the request is not sampled (all Span methods are nil-safe).
	sp *telemetry.Span
}

// getRequest pops a pooled request or allocates a fresh one.
func (s *SSD) getRequest() *request {
	if n := len(s.requests); n > 0 {
		req := s.requests[n-1]
		s.requests = s.requests[:n-1]
		return req
	}
	return &request{}
}

// putRequest recycles a completed request. Callers must not retain req.
func (s *SSD) putRequest(req *request) {
	*req = request{}
	s.requests = append(s.requests, req)
}

// lpnRange converts a byte extent to the logical pages of pageSize bytes it
// covers.
func lpnRange(pageSize int, offset int64, size int) (first, count ftl.LPN) {
	first = ftl.LPN(offset / int64(pageSize))
	last := ftl.LPN((offset + int64(size) - 1) / int64(pageSize))
	return first, last - first + 1
}

// submit starts servicing a newly-arrived host request: its byte extent is
// split into logical pages, each resolved by the FTL stage and handed on to
// the flash issue stage. Writes additionally charge the garbage collection
// the stage ran when they drained free blocks below the watermark.
func (s *SSD) submit(r workload.Request) {
	now := s.engine.Now()
	st := s.stage
	if !st.streaming {
		// Inline, and for a request submitted straight on the engine,
		// the FTL calls are made here.
		st.arrival(r, now)
	}
	sp := s.tel.StartRequest(now, r.Read, r.Size)
	first, count := lpnRange(s.pageSize, r.Offset, r.Size)
	req := s.getRequest()
	req.arrived, req.pages, req.read, req.size, req.sp = now, int(count), r.Read, r.Size, sp
	if s.inFlight == 0 {
		s.busyStart = now
	}
	s.inFlight++
	s.stages.Admission.Admitted++
	for i := ftl.LPN(0); i < count; i++ {
		if r.Read {
			s.stages.Dispatch.ReadPages++
			s.readPage(st.expect(effRead), first+i, req)
		} else {
			s.stages.Dispatch.WritePages++
			s.writePage(st.expect(effWrite), req)
		}
		st.pop()
	}
	if !r.Read {
		s.runGC()
	}
}

// pageDone accounts one finished page of the request and completes it when
// all pages are in.
func (s *SSD) pageDone(req *request) {
	req.pages--
	if req.pages > 0 {
		return
	}
	now := s.engine.Now()
	lat := now - req.arrived
	s.tel.FinishRequest(req.sp, now)
	if req.failed {
		if req.read {
			s.faultStats.FailedReadRequests++
		} else {
			s.faultStats.FailedWriteRequests++
		}
	}
	if req.read {
		s.readResp.Add(lat)
		s.readBytes += uint64(req.size)
		s.readReqs++
	} else {
		s.writeResp.Add(lat)
		s.writeBytes += uint64(req.size)
		s.writeReqs++
	}
	s.putRequest(req)
	s.lastHostDone = now
	s.inFlight--
	if s.inFlight == 0 {
		s.busySpan += now - s.busyStart
	}
}
