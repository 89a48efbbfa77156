package ssd

import (
	"idaflash/internal/sim"
	"idaflash/internal/telemetry"
	"idaflash/internal/workload"
)

// This file wires the stage pipeline together for one host request: submit
// runs the admission stage (admission.go), admitted requests go to the FTL
// dispatch stage (dispatch.go), and pageDone closes the loop — response
// accounting and submission-queue slot release.

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

// submit admits a newly-arrived host request, queueing it host-side when
// the submission queue is full.
func (s *SSD) submit(r workload.Request) {
	now := s.engine.Now()
	sp := s.tel.StartRequest(now, r.Read, r.Size)
	if !s.adm.hasSlot() {
		s.adm.park(r, now, sp)
		return
	}
	s.startRequest(r, now, sp)
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
	// A completed request frees a submission-queue slot; the oldest
	// parked request (if any) enters service with its original arrival
	// time, so host-side waiting counts toward its response.
	next, ok := s.adm.release()
	if s.adm.inFlight == 0 {
		s.busySpan += now - s.busyStart
	}
	if ok {
		s.startRequest(next.r, next.arrived, next.sp)
	}
}
