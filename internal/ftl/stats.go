package ftl

import "idaflash/internal/flash"

// Stats accumulates the FTL-level counters every experiment reads out.
// All counts are cumulative since construction.
type Stats struct {
	HostReads     uint64
	HostWrites    uint64
	Invalidations uint64
	Erases        uint64

	// ReadsByClass buckets host reads for Figure 4.
	ReadsByClass [numReadClasses]uint64
	// ReadsBySenses buckets host reads by the sensing count they needed
	// (index = sensings; index 0 unused).
	ReadsBySenses [9]uint64
	// ReadsFromIDA counts host reads served from IDA-reprogrammed
	// wordlines at reduced sensing counts.
	ReadsFromIDA uint64

	GCJobs       uint64
	GCMoves      uint64
	GCIDAVictims uint64

	Refreshes         uint64
	RefreshValidPages uint64
	RefreshMoves      uint64

	// IDA-modified refresh counters (Table IV).
	IDARefreshes       uint64
	IDAAdjustedWLs     uint64
	IDAVerifyReads     uint64
	IDACorruptedWrites uint64
	IDAKeptPages       uint64

	// Program power/wear proxies, accumulated from the coding scheme's
	// cost hooks: ProgramPower sums the expected per-cell voltage level
	// charged by every page program (including failed attempts) plus the
	// level distance swept by IDA voltage adjustments; ProgrammedCells
	// sums the expected fraction of cells each program moves off the
	// erased state. Units are per-cell voltage levels / cell fractions,
	// so schemes with identical latency but different programmed-state
	// distributions (ilwc vs ida) become comparable.
	ProgramPower    float64
	ProgrammedCells float64

	// Fault-injection recovery counters (internal/faults scenarios).
	// ProgramFailures counts failed page programs remapped to another
	// block; EraseFailures counts erases that failed outright; a block
	// leaves service (RetiredBlocks) after either kind of failure.
	ProgramFailures uint64
	EraseFailures   uint64
	RetiredBlocks   uint64
}

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// Add returns the field-wise sum of two snapshots. Array drivers use it to
// merge the per-device FTLs of a striped array into one device-level view.
func (s Stats) Add(o Stats) Stats {
	s.HostReads += o.HostReads
	s.HostWrites += o.HostWrites
	s.Invalidations += o.Invalidations
	s.Erases += o.Erases
	for i := range s.ReadsByClass {
		s.ReadsByClass[i] += o.ReadsByClass[i]
	}
	for i := range s.ReadsBySenses {
		s.ReadsBySenses[i] += o.ReadsBySenses[i]
	}
	s.ReadsFromIDA += o.ReadsFromIDA
	s.GCJobs += o.GCJobs
	s.GCMoves += o.GCMoves
	s.GCIDAVictims += o.GCIDAVictims
	s.Refreshes += o.Refreshes
	s.RefreshValidPages += o.RefreshValidPages
	s.RefreshMoves += o.RefreshMoves
	s.IDARefreshes += o.IDARefreshes
	s.IDAAdjustedWLs += o.IDAAdjustedWLs
	s.IDAVerifyReads += o.IDAVerifyReads
	s.IDACorruptedWrites += o.IDACorruptedWrites
	s.IDAKeptPages += o.IDAKeptPages
	s.ProgramPower += o.ProgramPower
	s.ProgrammedCells += o.ProgrammedCells
	s.ProgramFailures += o.ProgramFailures
	s.EraseFailures += o.EraseFailures
	s.RetiredBlocks += o.RetiredBlocks
	return s
}

// ResetStats zeroes the counters. Simulation drivers call it after warmup
// so measurements cover only the timed phase.
func (f *FTL) ResetStats() { f.stats = Stats{} }

// BlockUsage is a point-in-time census of block states, backing the paper's
// Section III-C in-use block accounting.
type BlockUsage struct {
	Total     int // all blocks in the device
	Free      int // erased, on a free list
	Active    int // currently accepting programs
	InUse     int // programmed, holding at least one valid page
	Empty     int // programmed but fully invalid (awaiting GC)
	IDABlocks int // reprogrammed with the IDA coding, still in use
	// IDAValidPages counts valid pages living on IDA-reprogrammed
	// blocks — the merge-state page population the telemetry
	// time-series tracks over refresh cycles.
	IDAValidPages int
	// Retired counts grown-bad blocks permanently out of service.
	Retired int
}

// Add returns the field-wise sum of two censuses, merging a striped array's
// per-device block states into one array-level view.
func (u BlockUsage) Add(o BlockUsage) BlockUsage {
	u.Total += o.Total
	u.Free += o.Free
	u.Active += o.Active
	u.InUse += o.InUse
	u.Empty += o.Empty
	u.IDABlocks += o.IDABlocks
	u.IDAValidPages += o.IDAValidPages
	u.Retired += o.Retired
	return u
}

// Wear summarizes the erase-count distribution across all blocks, the
// quantity the greedy wear-aware GC tie-break is meant to keep flat and the
// paper's endurance discussion (Section III-B) cares about.
type Wear struct {
	MinErase  int
	MaxErase  int
	MeanErase float64
	// Spread is MaxErase - MinErase; small spreads mean even wear.
	Spread int
}

// WearStats computes the erase-count distribution.
func (f *FTL) WearStats() Wear {
	var w Wear
	total := 0
	for i, b := range f.blocks {
		e := b.EraseCount
		if i == 0 || e < w.MinErase {
			w.MinErase = e
		}
		if i == 0 || e > w.MaxErase {
			w.MaxErase = e
		}
		total += e
	}
	if n := len(f.blocks); n > 0 {
		w.MeanErase = float64(total) / float64(n)
	}
	w.Spread = w.MaxErase - w.MinErase
	return w
}

// Usage computes the census.
func (f *FTL) Usage() BlockUsage {
	var u BlockUsage
	u.Total = f.geom.TotalBlocks()
	for pl, ps := range f.planes {
		u.Free += len(ps.free)
		if ps.active >= 0 {
			u.Active++
		}
		for blk, b := range f.planeBlocks(flash.PlaneID(pl)) {
			if blk == ps.active {
				continue
			}
			if b.Retired {
				u.Retired++
				continue
			}
			if b.NextStep == 0 {
				continue // erased (already counted via free list)
			}
			if b.ValidCount > 0 {
				u.InUse++
				if b.IDA {
					u.IDABlocks++
					u.IDAValidPages += b.ValidCount
				}
			} else {
				u.Empty++
			}
		}
	}
	return u
}
