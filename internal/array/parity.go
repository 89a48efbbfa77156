package array

import (
	"fmt"
	"sync"

	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

// RAID-5-style parity striping and degraded-mode reconstruction.
//
// Layout: the host address space is cut into stripe units; N-1 consecutive
// units form a parity row. Every unit of row r — the N-1 data units and the
// parity unit — lives at the same device-local offset r*unit, one unit per
// device, with the parity unit rotating across devices (parityDev(r) =
// r mod N). Because a row occupies the same local extent on every device,
// reconstructing a failed read is a read of the *same* local extent on the
// N-1 peers.
//
// Writes update parity in place: each host write row adds one write
// sub-request on the row's parity device covering the written span (the
// read-old-data/read-old-parity halves of a true read-modify-write are not
// charged — the model under-counts parity-update reads, which is noted in
// DESIGN.md). Reads touch only the owning data device unless recovery
// kicks in.

// parityDev returns the device holding row r's parity unit.
func parityDev(row int64, devices int) int { return int(row % int64(devices)) }

// dataDev returns the device holding data unit k (0-based within the row)
// of row r: the rotation skips the parity device.
func dataDev(row, k int64, devices int) int {
	if p := int64(parityDev(row, devices)); k >= p {
		k++
	}
	return int(k)
}

// SplitParity deals a host trace across devices in the rotated-parity
// layout, adding the parity-update writes. Sub-requests inherit the host
// arrival time; per-device extents are coalesced when contiguous.
func SplitParity(tr *workload.Trace, devices int, unitBytes int64) []*workload.Trace {
	out := memberTraces(tr.Name, devices)
	for _, r := range tr.Requests {
		cutParity(r, devices, unitBytes, func(d int, q workload.Request) {
			reqs := out[d].Requests
			if n := len(reqs); n > 0 && coalesce(&reqs[n-1], q) {
				return
			}
			out[d].Requests = append(reqs, q)
		})
	}
	return out
}

// coalesce extends last by q when q continues it at the same instant in the
// same direction, as SplitParity merges a device's contiguous extents.
func coalesce(last *workload.Request, q workload.Request) bool {
	if last.At != q.At || last.Read != q.Read || last.End() != q.Offset {
		return false
	}
	last.Size += q.Size
	return true
}

// cutParity calls emit with r's sub-requests in the rotated-parity layout
// — data units and one parity-update write per written row — in the order
// SplitParity lays them down, before coalescing.
func cutParity(r workload.Request, devices int, unitBytes int64, emit func(d int, q workload.Request)) {
	data := int64(devices - 1)
	add := func(dev int, off, end int64) {
		emit(dev, workload.Request{At: r.At, Offset: off, Size: int(end - off), Read: r.Read})
	}
	s0 := r.Offset / unitBytes
	s1 := (r.End() - 1) / unitBytes
	// pStart/pEnd accumulate the written intra-unit span of the current
	// row; flushed as one parity write per row.
	row := s0 / data
	pStart, pEnd := int64(-1), int64(-1)
	flushParity := func(row int64) {
		if r.Read || pStart < 0 {
			return
		}
		add(parityDev(row, devices), row*unitBytes+pStart, row*unitBytes+pEnd)
		pStart, pEnd = -1, -1
	}
	for s := s0; s <= s1; s++ {
		if rr := s / data; rr != row {
			flushParity(row)
			row = rr
		}
		in0 := int64(0)
		if s == s0 {
			in0 = r.Offset - s*unitBytes
		}
		in1 := unitBytes
		if s == s1 {
			in1 = r.End() - s*unitBytes
		}
		add(dataDev(row, s%data, devices), row*unitBytes+in0, row*unitBytes+in1)
		if !r.Read {
			if pStart < 0 || in0 < pStart {
				pStart = in0
			}
			if in1 > pEnd {
				pEnd = in1
			}
		}
	}
	flushParity(row)
}

// DegradedStats accounts the post-run parity reconstruction of failed
// reads.
type DegradedStats struct {
	// DegradedExtents counts failed read extents successfully rebuilt
	// from the peer devices (degraded-mode reads).
	DegradedExtents uint64
	// ReconRequests counts the peer read requests issued to rebuild them
	// (the rebuild traffic).
	ReconRequests uint64
	// LostExtents counts extents that could not be rebuilt because a
	// peer's share of the row failed too (or the peer never ran). Zero
	// means no host data was lost despite the faults.
	LostExtents uint64
}

// reconstruct runs the degraded-mode recovery pass: every device's failed
// read extents are re-read — at the same local offsets — on all its peers,
// whose units of the same parity rows suffice to rebuild the data. Peer
// replays run through RunMore on the peers' own engines, so rebuild traffic
// is simulated (and can itself fail under the active fault scenario). An
// extent is lost only when some peer's share also fails.
func (a *Array) reconstruct(failed [][]ssd.FailedExtent, deg *DegradedStats) {
	recon := make([]*workload.Trace, len(a.devs))
	for q := range a.devs {
		t := &workload.Trace{Name: fmt.Sprintf("recon@dev%d", q)}
		for d, exts := range failed {
			if d == q {
				continue
			}
			for _, e := range exts {
				t.Requests = append(t.Requests, workload.Request{
					Offset: e.Offset, Size: e.Size, Read: true,
				})
			}
		}
		recon[q] = t
	}
	type reconOut struct {
		res    ssd.Results
		failed []ssd.FailedExtent
		err    error
	}
	outs := make([]reconOut, len(a.devs))
	var wg sync.WaitGroup
	for q := range a.devs {
		if len(recon[q].Requests) == 0 {
			continue
		}
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := a.devs[q].RunMore(recon[q])
			outs[q] = reconOut{res: res, err: err}
			if err == nil {
				outs[q].failed = a.devs[q].FailedReadExtents()
			}
		}(q)
	}
	wg.Wait()
	for q := range outs {
		deg.ReconRequests += outs[q].res.ReadRequests
	}
	overlaps := func(exts []ssd.FailedExtent, e ssd.FailedExtent) bool {
		for _, f := range exts {
			if f.Offset < e.Offset+int64(e.Size) && e.Offset < f.Offset+int64(f.Size) {
				return true
			}
		}
		return false
	}
	for d, exts := range failed {
		for _, e := range exts {
			lost := false
			for q := range a.devs {
				if q == d || len(recon[q].Requests) == 0 {
					continue
				}
				if outs[q].err != nil || overlaps(outs[q].failed, e) {
					lost = true
					break
				}
			}
			if lost {
				deg.LostExtents++
			} else {
				deg.DegradedExtents++
			}
		}
	}
}
