// Package workload models host I/O streams: the request/trace types, a
// deterministic synthetic generator with one profile per workload of the
// paper's Table III, and a parser/serializer for the MSR Cambridge block
// trace format so the real traces can be replayed when available.
//
// The paper evaluates on eleven read-intensive volumes of the MSR Cambridge
// suite. Those traces are not redistributable, so this package generates
// synthetic equivalents matched to the published per-workload statistics:
// read request ratio, mean read size, read data ratio (Table III), and an
// update pattern tuned to land the "MSB reads whose LSB/CSB are invalid"
// fraction in the paper's reported band.
package workload

import (
	"fmt"
	"sort"
	"time"
)

// Request is one host I/O.
type Request struct {
	// At is the arrival time, an offset from the trace start.
	At time.Duration
	// Offset is the starting byte address.
	Offset int64
	// Size is the transfer length in bytes.
	Size int
	// Read distinguishes reads from writes.
	Read bool
}

// End returns the first byte address past the request.
func (r Request) End() int64 { return r.Offset + int64(r.Size) }

// Trace is an ordered sequence of host requests.
type Trace struct {
	Name     string
	Requests []Request
}

// Stream yields requests one at a time, in order.
type Stream interface {
	// Next returns the next request, or false once the stream is done.
	Next() (Request, bool)
}

// Requests streams reqs in order without copying them.
func Requests(reqs []Request) Stream { return &sliceStream{reqs: reqs} }

type sliceStream struct{ reqs []Request }

func (s *sliceStream) Next() (Request, bool) {
	if len(s.reqs) == 0 {
		return Request{}, false
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r, true
}

// Span returns the arrival time of the last request.
func (t *Trace) Span() time.Duration {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].At
}

// Validate reports the first structural problem: unsorted arrivals,
// negative offsets, or non-positive sizes.
func (t *Trace) Validate() error {
	var prev time.Duration
	for i, r := range t.Requests {
		if r.At < prev {
			return fmt.Errorf("workload: request %d arrives at %v before %v", i, r.At, prev)
		}
		prev = r.At
		if r.Offset < 0 {
			return fmt.Errorf("workload: request %d has negative offset %d", i, r.Offset)
		}
		if r.Size <= 0 {
			return fmt.Errorf("workload: request %d has size %d", i, r.Size)
		}
	}
	return nil
}

// TraceStats are the Table III characteristics of a trace.
type TraceStats struct {
	Requests      int
	ReadRatio     float64 // fraction of requests that are reads
	MeanReadKB    float64 // mean read request size
	MeanWriteKB   float64 // mean write request size
	ReadDataRatio float64 // read bytes / total bytes
	FootprintMB   float64 // distinct byte range touched, in MB
	Span          time.Duration
}

// Stats computes the trace's characteristics. Footprint is measured as the
// union of touched intervals.
func (t *Trace) Stats() TraceStats {
	var s TraceStats
	s.Requests = len(t.Requests)
	s.Span = t.Span()
	var readBytes, writeBytes int64
	var reads, writes int
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(t.Requests))
	for _, r := range t.Requests {
		if r.Read {
			reads++
			readBytes += int64(r.Size)
		} else {
			writes++
			writeBytes += int64(r.Size)
		}
		ivs = append(ivs, iv{r.Offset, r.End()})
	}
	if s.Requests > 0 {
		s.ReadRatio = float64(reads) / float64(s.Requests)
	}
	if reads > 0 {
		s.MeanReadKB = float64(readBytes) / float64(reads) / 1024
	}
	if writes > 0 {
		s.MeanWriteKB = float64(writeBytes) / float64(writes) / 1024
	}
	if readBytes+writeBytes > 0 {
		s.ReadDataRatio = float64(readBytes) / float64(readBytes+writeBytes)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	started := false
	var lo, hi int64
	for _, v := range ivs {
		switch {
		case !started:
			lo, hi = v.lo, v.hi
			started = true
		case v.lo > hi:
			covered += hi - lo
			lo, hi = v.lo, v.hi
		case v.hi > hi:
			hi = v.hi
		}
	}
	if started {
		covered += hi - lo
	}
	s.FootprintMB = float64(covered) / (1 << 20)
	return s
}
