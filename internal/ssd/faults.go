package ssd

import (
	"sort"

	"idaflash/internal/ftl"
	"idaflash/internal/sim"
)

// Host-path fault recovery: when a fault scenario (internal/faults) is
// attached, every flash command issue first consults the device's injector.
// Commands aimed at a die or channel that is out of service — and read
// commands the injector hangs — are retried with exponential backoff up to
// the scenario's budget; a command that exhausts the budget fails its page,
// and the request completes as failed instead of hanging. Failed read
// extents are recorded so a parity-enabled array (internal/array) can
// reconstruct them from peer devices afterwards.

// FaultStats instruments the host-path fault recovery. All counters are
// page-granular except the two request-level tallies.
type FaultStats struct {
	// ReadRetries and WriteRetries count flash commands re-issued after
	// backoff because of an outage or transient fault.
	ReadRetries  uint64
	WriteRetries uint64
	// ReadTimeouts counts read commands that hung and burned the per-op
	// timeout; LatencySpikes counts reads served with an injected latency
	// spike.
	ReadTimeouts  uint64
	LatencySpikes uint64
	// FailedReadPages and FailedWritePages count page operations that
	// exhausted the retry budget; FailedReadRequests and
	// FailedWriteRequests count the host requests containing them.
	FailedReadPages     uint64
	FailedWritePages    uint64
	FailedReadRequests  uint64
	FailedWriteRequests uint64
}

// Add returns the field-wise sum of two snapshots (array merging).
func (f FaultStats) Add(o FaultStats) FaultStats {
	f.ReadRetries += o.ReadRetries
	f.WriteRetries += o.WriteRetries
	f.ReadTimeouts += o.ReadTimeouts
	f.LatencySpikes += o.LatencySpikes
	f.FailedReadPages += o.FailedReadPages
	f.FailedWritePages += o.FailedWritePages
	f.FailedReadRequests += o.FailedReadRequests
	f.FailedWriteRequests += o.FailedWriteRequests
	return f
}

// FailedExtent is a device-local byte extent whose read exhausted the host
// retry budget during the run. Parity-enabled arrays reconstruct these from
// peer devices; without parity they are simply lost reads.
type FailedExtent struct {
	Offset int64
	Size   int
}

// FailedReadExtents returns the device-local extents of all failed page
// reads, sorted and with adjacent or overlapping pages coalesced. The list
// accumulates per measured phase (resetMetrics clears it).
func (s *SSD) FailedReadExtents() []FailedExtent {
	if len(s.failedReads) == 0 {
		return nil
	}
	ext := append([]FailedExtent(nil), s.failedReads...)
	sort.Slice(ext, func(i, j int) bool { return ext[i].Offset < ext[j].Offset })
	out := ext[:1]
	for _, e := range ext[1:] {
		last := &out[len(out)-1]
		if e.Offset <= last.Offset+int64(last.Size) {
			if end := e.Offset + int64(e.Size); end > last.Offset+int64(last.Size) {
				last.Size = int(end - last.Offset)
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// issueRead is the fault-aware front of the read issue path: it checks the
// target die and channel for outages and draws the command's transient fate
// before handing off to the ECC read-round chain. Only called with an
// injector attached.
func (s *SSD) issueRead(lpn ftl.LPN, info ftl.ReadInfo, req *request, attempt int) {
	now := s.engine.Now()
	die := s.cfg.Geometry.DieOf(info.Addr.Plane)
	ch := s.cfg.Geometry.ChannelOf(info.Addr.Plane)
	pol := s.inj.Retry()
	retry := func() {
		if attempt >= pol.Max {
			s.failReadPage(lpn, req)
			return
		}
		s.faultStats.ReadRetries++
		s.engine.After(pol.BackoffAt(attempt), func() {
			s.issueRead(lpn, info, req, attempt+1)
		})
	}
	if s.inj.DieDown(die, now) || s.inj.ChannelDown(ch, now) {
		retry()
		return
	}
	extra, timeout := s.inj.ReadFault()
	if timeout {
		// The command hangs mid-sense: the die is occupied until the
		// host's per-op timeout declares it dead, then the host backs
		// off and re-issues.
		s.faultStats.ReadTimeouts++
		s.dies[die].Acquire(sim.PrioHostRead, pol.OpTimeout.D(), retry)
		return
	}
	if extra > 0 {
		s.faultStats.LatencySpikes++
	}
	retries := eccParams(s.cfg.ECC, info).SampleRetries(s.rng)
	s.startRead(info, req, retries, extra)
}

// failReadPage gives up on a page read: the page completes as failed (the
// request never hangs) and its extent is recorded for reconstruction.
func (s *SSD) failReadPage(lpn ftl.LPN, req *request) {
	s.faultStats.FailedReadPages++
	s.failedReads = append(s.failedReads, FailedExtent{
		Offset: int64(lpn) * int64(s.pageSize),
		Size:   s.pageSize,
	})
	req.failed = true
	s.pageDone(req)
}

// checkWriteOutage consults the injector before a program issue. It returns
// true when the caller should stop: either a retry was scheduled or the
// page was failed.
func (s *SSD) checkWriteOutage(prog ftl.PageProgram, req *request, attempt int) bool {
	if s.inj == nil {
		return false
	}
	now := s.engine.Now()
	die := s.cfg.Geometry.DieOf(prog.Addr.Plane)
	ch := s.cfg.Geometry.ChannelOf(prog.Addr.Plane)
	if !s.inj.DieDown(die, now) && !s.inj.ChannelDown(ch, now) {
		return false
	}
	pol := s.inj.Retry()
	if attempt >= pol.Max {
		// The data cannot reach its die; the write completes as failed
		// rather than stalling the request forever. (Remapping around
		// outages is a controller design beyond this model: the FTL
		// remaps program failures, not interface outages.)
		s.faultStats.FailedWritePages++
		req.failed = true
		s.pageDone(req)
		return true
	}
	s.faultStats.WriteRetries++
	s.engine.After(pol.BackoffAt(attempt), func() {
		s.issueProgram(prog, req, attempt+1)
	})
	return true
}
