package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// alignBytes is the address/size granule of generated requests. It matches
// the 8 KB flash page of the baseline device so generated requests map onto
// whole pages, as the MSR traces (4 KB sectors on 8 KB pages) effectively do
// after FTL alignment.
const alignBytes = 8 * 1024

// refreshPeriodsPerTrace is the number of data-refresh cycles the
// simulation drivers fit into one trace span (they use period = Duration/6).
// The footprint derivation below needs it: the steady-state fraction of
// wordlines with invalid siblings is set by the write volume of one refresh
// period relative to the footprint, because each refresh re-packs a block's
// surviving pages into fully-valid wordlines.
const refreshPeriodsPerTrace = 6

// Profile parameterizes the synthetic generator. Zero-valued optional
// fields are filled by Normalize.
type Profile struct {
	Name string

	// ReadRatio is the fraction of requests that are reads (Table III
	// column 2).
	ReadRatio float64
	// MeanReadKB is the mean read request size (Table III column 3).
	MeanReadKB float64
	// ReadDataRatio is the read share of transferred bytes (Table III
	// column 4); together with ReadRatio and MeanReadKB it determines the
	// mean write size.
	ReadDataRatio float64
	// MeanWriteKB is the mean write size; derived from ReadDataRatio
	// when zero.
	MeanWriteKB float64
	// TargetInvalidMSB is the paper-reported fraction of MSB reads whose
	// associated LSB/CSB pages are invalid (Table III column 5). The
	// generator sizes the footprint so the overwrite pressure lands the
	// simulation near this value.
	TargetInvalidMSB float64

	// FootprintMB is the working-set size; derived from the write volume
	// and TargetInvalidMSB when zero.
	FootprintMB float64
	// Requests is the number of requests to generate.
	Requests int
	// Duration is the simulated span of the trace.
	Duration time.Duration
	// ReadZipf is the skew of read addresses: 0 means uniform; larger
	// values concentrate reads on a hot set.
	ReadZipf float64
	// SeqProb is the probability that a request continues sequentially
	// after the previous one of the same kind.
	SeqProb float64
	// BurstMean is the mean number of requests per arrival burst.
	// Block-level traces are highly bursty (queued dependent I/Os,
	// scanner sweeps); bursts are what make device queueing — and
	// therefore the latency amplification the paper reports — visible.
	// Defaults to 150; 1 disables bursting.
	BurstMean float64
	// BurstGap is the intra-burst inter-arrival time; derived from the
	// mean read size when zero so bursts offer near-service-rate load.
	BurstGap time.Duration
	// Seed makes generation deterministic.
	Seed int64
}

// Normalize fills derived fields and validates ranges. It returns a copy.
func (p Profile) Normalize() (Profile, error) {
	if p.Name == "" {
		return p, fmt.Errorf("workload: profile needs a name")
	}
	if p.ReadRatio < 0 || p.ReadRatio > 1 {
		return p, fmt.Errorf("workload: %s ReadRatio %v out of [0,1]", p.Name, p.ReadRatio)
	}
	if p.MeanReadKB <= 0 {
		return p, fmt.Errorf("workload: %s MeanReadKB %v must be positive", p.Name, p.MeanReadKB)
	}
	if p.Requests == 0 {
		p.Requests = 100000
	}
	if p.Requests < 0 {
		return p, fmt.Errorf("workload: %s Requests %d must be positive", p.Name, p.Requests)
	}
	if p.Duration == 0 {
		p.Duration = 2 * time.Hour
	}
	if p.Duration < 0 {
		return p, fmt.Errorf("workload: %s Duration %v must be positive", p.Name, p.Duration)
	}
	if p.ReadZipf == 0 {
		p.ReadZipf = 1.1
	}
	if p.SeqProb == 0 {
		p.SeqProb = 0.3
	}
	if p.SeqProb < 0 || p.SeqProb >= 1 {
		return p, fmt.Errorf("workload: %s SeqProb %v out of [0,1)", p.Name, p.SeqProb)
	}
	if p.BurstMean == 0 {
		p.BurstMean = 150
	}
	if p.BurstMean < 1 {
		return p, fmt.Errorf("workload: %s BurstMean %v must be at least 1", p.Name, p.BurstMean)
	}
	if p.BurstGap == 0 {
		// Intra-burst spacing scales with the workload's mean read
		// size so that bursts offer near-service-rate load (the
		// sustained-queueing regime block traces exhibit): larger
		// requests need proportionally longer per-request service.
		gap := time.Duration(p.MeanReadKB*5) * time.Microsecond
		if gap < 60*time.Microsecond {
			gap = 60 * time.Microsecond
		}
		if gap > 500*time.Microsecond {
			gap = 500 * time.Microsecond
		}
		p.BurstGap = gap
	}
	if p.BurstGap < 0 {
		return p, fmt.Errorf("workload: %s BurstGap %v must be non-negative", p.Name, p.BurstGap)
	}
	if p.MeanWriteKB == 0 {
		p.MeanWriteKB = p.deriveWriteKB()
	}
	if p.TargetInvalidMSB == 0 {
		p.TargetInvalidMSB = 0.25
	}
	if p.TargetInvalidMSB < 0 || p.TargetInvalidMSB >= 1 {
		return p, fmt.Errorf("workload: %s TargetInvalidMSB %v out of [0,1)", p.Name, p.TargetInvalidMSB)
	}
	if p.FootprintMB == 0 {
		p.FootprintMB = p.deriveFootprintMB()
	}
	if p.FootprintMB <= 0 {
		return p, fmt.Errorf("workload: %s FootprintMB %v must be positive", p.Name, p.FootprintMB)
	}
	return p, nil
}

// deriveWriteKB computes the mean write size that reproduces the profile's
// ReadDataRatio given its ReadRatio and MeanReadKB.
func (p Profile) deriveWriteKB() float64 {
	if p.ReadRatio >= 1 || p.ReadDataRatio <= 0 || p.ReadDataRatio >= 1 {
		return p.MeanReadKB / 2
	}
	// readBytes/totalBytes = rdr with counts n*rr reads, n*(1-rr) writes:
	// w = r * (rr/(1-rr)) * ((1-rdr)/rdr)
	w := p.MeanReadKB * (p.ReadRatio / (1 - p.ReadRatio)) * ((1 - p.ReadDataRatio) / p.ReadDataRatio)
	if w < 4 {
		w = 4
	}
	if w > 512 {
		w = 512
	}
	return w
}

// writeVolumePages estimates the total pages the trace writes.
func (p Profile) writeVolumePages() float64 {
	return float64(p.Requests) * (1 - p.ReadRatio) * p.MeanWriteKB * 1024 / alignBytes
}

// deriveFootprintMB sizes the working set so the trace's overwrite pressure
// produces the wordline-invalidation density implied by TargetInvalidMSB.
// Each data-refresh cycle re-packs surviving pages into fully-valid
// wordlines, so at steady state the per-page invalidation probability per
// period is q = V_period / W, and an MSB read (two faster siblings) finds a
// dead sibling with probability about 1-(1-q/2)^2 averaged over the period.
// Solving for W with the small-q approximation T ~= q gives
// W = V / (periods * T). The paper's traces have exactly this property:
// their write volumes are a material fraction of their footprints per
// refresh period, which is why Table III's column 5 is as large as it is.
func (p Profile) deriveFootprintMB() float64 {
	volumeMB := p.writeVolumePages() * alignBytes / (1024 * 1024)
	t := p.TargetInvalidMSB
	if t < 0.02 {
		t = 0.02
	}
	fp := volumeMB / (refreshPeriodsPerTrace * t)
	if fp < 6 {
		fp = 6
	}
	if fp > 8192 {
		fp = 8192
	}
	return fp
}

// Generate produces the synthetic trace for the profile. The same profile
// (including Seed) always yields the identical trace.
func (p Profile) Generate() (*Trace, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	rng := seededRand(p.Seed ^ int64(len(p.Name))<<32 ^ hashName(p.Name))
	defer rngs.Put(rng)
	pages := p.footprintPages()
	footprint := pages * alignBytes

	// Zipf source for mild skew among the reads, as customary for
	// storage traces.
	var zipf *rand.Zipf
	if p.ReadZipf > 1 {
		zipf = rand.NewZipf(rng, p.ReadZipf, 8, uint64(pages-1))
	}
	// A fixed multiplicative hash spreads zipf ranks across the address
	// space so hotness is not address-contiguous.
	spread := func(rank uint64) int64 {
		h := rank*2654435761 + 97
		return int64(h % uint64(pages))
	}

	t := &Trace{Name: p.Name, Requests: make([]Request, 0, p.Requests)}
	interarrival := float64(p.Duration) / float64(p.Requests)
	now := 0.0
	burstLeft := 0
	burstIsRead := true
	readsAssigned := 0
	var lastReadEnd, lastWriteEnd int64
	for i := 0; i < p.Requests; i++ {
		// Bursty arrivals: requests cluster in geometric-sized bursts
		// with tight intra-burst spacing; burst gaps scale with the
		// burst size so the long-run rate still matches Duration.
		// Bursts are type-homogeneous — reads arrive in scan/dependent
		// chains, writes in flush batches — which is what block traces
		// show and what exposes read queueing to the coding change.
		if burstLeft == 0 {
			// Deficit-balanced type choice keeps the realized read
			// ratio tight around the target despite long bursts.
			// Write bursts (flushes) scale with the write share so
			// read-heavy workloads do not overshoot on one flush.
			burstIsRead = float64(readsAssigned) <= p.ReadRatio*float64(i)
			mean := p.BurstMean
			if !burstIsRead {
				mean = p.BurstMean * (1 - p.ReadRatio)
				if mean < 1 {
					mean = 1
				}
			}
			burstLeft = 1 + int(rng.ExpFloat64()*(mean-1))
			now += rng.ExpFloat64() * interarrival * float64(burstLeft)
		} else {
			now += float64(p.BurstGap)
		}
		burstLeft--
		isRead := burstIsRead
		if isRead {
			readsAssigned++
		}
		meanKB := p.MeanReadKB
		last := lastReadEnd
		if !isRead {
			meanKB = p.MeanWriteKB
			last = lastWriteEnd
		}
		size := sampleSize(rng, meanKB)
		var off int64
		switch {
		case rng.Float64() < p.SeqProb && last > 0 && last+int64(size) <= footprint:
			off = last
		case isRead && zipf != nil:
			off = spread(zipf.Uint64()) * alignBytes
		default:
			off = rng.Int63n(pages) * alignBytes
		}
		if off+int64(size) > footprint {
			off = footprint - int64(size)
			if off < 0 {
				off = 0
				size = int(footprint)
			}
		}
		if isRead {
			lastReadEnd = off + int64(size)
		} else {
			lastWriteEnd = off + int64(size)
		}
		t.Requests = append(t.Requests, Request{
			At:     time.Duration(now),
			Offset: off,
			Size:   size,
			Read:   isRead,
		})
	}
	return t, nil
}

// agingRounds is how many times the aging preamble rewrites the footprint:
// two full rewrites plus a partial round.
const agingRounds = 2.45

// AgingPreamble builds a deterministic write-only request stream that ages
// the device into the steady state a long-running volume would be in: the
// footprint is rewritten a couple of times in random single-page order, the
// final pass partially, so pages of all ages coexist and roughly the
// steady-state share of wordlines already has dead siblings at time zero.
// Simulation drivers replay it in zero simulated time before the measured
// trace. The preamble is not part of the trace proper and must not be
// counted in workload statistics. It collects AgingStream's requests; a
// run that only replays them streams them instead.
func (p Profile) AgingPreamble() (*Trace, error) {
	s, err := p.agingStream()
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: p.Name + "-aging", Requests: make([]Request, 0, s.left)}
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		t.Requests = append(t.Requests, r)
	}
	return t, nil
}

// AgingStream opens the aging preamble as a stream: the requests
// AgingPreamble holds, in the same order from the same seeded rng, made one
// at a time as they are asked for, so a run that ages never holds them all.
func (p Profile) AgingStream() (Stream, error) {
	return p.agingStream()
}

func (p Profile) agingStream() (*agingStream, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	pages := p.footprintPages()
	return &agingStream{
		rng:   seededRand(p.Seed ^ hashName(p.Name) ^ 0x41474547),
		pages: pages,
		left:  int(float64(pages) * agingRounds),
	}, nil
}

// agingStream draws the preamble's single-page writes, all at time zero,
// uniformly over the footprint. Its rng goes back to the pool once the
// stream is exhausted.
type agingStream struct {
	rng   *rand.Rand
	pages int64
	left  int
}

// Next returns the next preamble write, or false once the stream is done.
func (s *agingStream) Next() (Request, bool) {
	if s.left == 0 {
		if s.rng != nil {
			rngs.Put(s.rng)
			s.rng = nil
		}
		return Request{}, false
	}
	s.left--
	return Request{Offset: s.rng.Int63n(s.pages) * alignBytes, Size: alignBytes}, true
}

// footprintPages is the normalized profile's footprint in whole pages, at
// least one.
func (p Profile) footprintPages() int64 {
	return max(int64(p.FootprintMB*1024*1024)/alignBytes, 1)
}

// rngs recycles the generators' rngs: a rand.NewSource is 4.9 KB, and
// reseeding one in place yields exactly the stream a new source with that
// seed would.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRand takes an rng from the pool, seeded with seed. The caller puts
// it back once done with it.
func seededRand(seed int64) *rand.Rand {
	r := rngs.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// singlePageProb is the fraction of requests that are single-page. Block
// traces are heavily skewed: most requests are small while a long tail of
// large scans carries the byte volume, which is why the Table III mean
// sizes are several times the median.
const singlePageProb = 0.6

// sampleSize draws a request size (bytes): single-page with probability
// singlePageProb, otherwise an exponential tail sized so the overall mean
// matches meanKB, clamped to [1 page, 512 KB].
func sampleSize(rng *rand.Rand, meanKB float64) int {
	if rng.Float64() < singlePageProb {
		return alignBytes
	}
	pageKB := float64(alignBytes) / 1024
	tailMean := (meanKB - singlePageProb*pageKB) / (1 - singlePageProb)
	if tailMean < pageKB {
		tailMean = pageKB
	}
	kb := rng.ExpFloat64() * tailMean
	b := int(kb*1024) / alignBytes * alignBytes
	if b < alignBytes {
		b = alignBytes
	}
	if b > 512*1024 {
		b = 512 * 1024
	}
	return b
}

// hashName folds a profile name into seed bits so differently-named
// profiles with the same Seed still produce distinct traces.
func hashName(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}
