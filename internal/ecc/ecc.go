// Package ecc models the SSD's error-correction engine at the level the
// paper's evaluation needs: a fixed hardware decode latency per page, a raw
// bit error rate (RBER) that grows over the device lifetime, and an
// LDPC-style read-retry process in which a failed hard decode triggers
// re-sensing the wordline with adjusted read voltages (Section V-F, after
// Zhao et al., "LDPC-in-SSD", FAST 2013).
//
// A retry re-senses every read voltage of the page, so a page that needs
// fewer sensings (an IDA-reprogrammed page) also pays less per retry, which
// is exactly why the paper finds IDA more effective late in the device
// lifetime.
package ecc

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// LifetimePhase selects the device-age regime of Figure 11.
type LifetimePhase int

const (
	// PhaseEarly is the young-device regime: RBER is below the hard
	// decoder's limit and reads never retry.
	PhaseEarly LifetimePhase = iota
	// PhaseLate is the worn-device regime: hard decodes fail often
	// enough that read-retries dominate the read tail.
	PhaseLate
)

// String names the phase.
func (p LifetimePhase) String() string {
	switch p {
	case PhaseEarly:
		return "early"
	case PhaseLate:
		return "late"
	default:
		return fmt.Sprintf("LifetimePhase(%d)", int(p))
	}
}

// Params configures the decode/retry behaviour.
type Params struct {
	// DecodeLatency is the hardware decode time per page (Table II:
	// 20 us for an ultra-high-throughput LDPC engine).
	DecodeLatency time.Duration
	// FirstFailProb is the probability that the initial hard decode of a
	// page fails and a read-retry round is needed.
	FirstFailProb float64
	// RetryDecay multiplies the failure probability after every retry
	// round: round k fails with FirstFailProb * RetryDecay^k. Each round
	// uses finer-grained soft sensing, so decays below 1 model the
	// increasing success rate of deeper soft decoding.
	RetryDecay float64
	// MaxRetries caps the number of retry rounds; the final round always
	// succeeds (the paper's interest is latency, not data loss).
	MaxRetries int
}

// PaperParams returns the retry parameters used for Figure 11: no retries in
// the early phase; in the late phase 40% of hard decodes fail and each soft
// round succeeds with quickly-increasing probability.
func PaperParams(phase LifetimePhase) Params {
	p := Params{DecodeLatency: 20 * time.Microsecond}
	if phase == PhaseLate {
		p.FirstFailProb = 0.4
		p.RetryDecay = 0.25
		p.MaxRetries = 4
	}
	return p
}

// Validate reports the first problem with the parameters, or nil.
func (p Params) Validate() error {
	if p.DecodeLatency <= 0 {
		return fmt.Errorf("ecc: DecodeLatency %v must be positive", p.DecodeLatency)
	}
	if p.FirstFailProb < 0 || p.FirstFailProb > 1 {
		return fmt.Errorf("ecc: FirstFailProb %v out of [0,1]", p.FirstFailProb)
	}
	if p.RetryDecay < 0 || p.RetryDecay > 1 {
		return fmt.Errorf("ecc: RetryDecay %v out of [0,1]", p.RetryDecay)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("ecc: MaxRetries %d must be non-negative", p.MaxRetries)
	}
	if p.FirstFailProb > 0 && p.MaxRetries == 0 {
		return fmt.Errorf("ecc: FirstFailProb %v needs MaxRetries > 0", p.FirstFailProb)
	}
	return nil
}

// WithFailScale returns a copy of the parameters with the hard-decode
// failure probability multiplied by s. The SSD model uses it for pages on
// IDA-reprogrammed wordlines: merging halves the number of occupied voltage
// states, roughly doubling the read margin between adjacent states, which
// cuts the raw bit error rate — and with it the decode failure probability —
// superlinearly.
func (p Params) WithFailScale(s float64) Params {
	if s < 0 {
		s = 0
	}
	p.FirstFailProb *= s
	if p.FirstFailProb > 1 {
		p.FirstFailProb = 1
	}
	return p
}

// SampleRetries draws the number of read-retry rounds a page read needs.
// Zero means the hard decode succeeded.
func (p Params) SampleRetries(rng *rand.Rand) int {
	if p.FirstFailProb == 0 || p.MaxRetries == 0 {
		return 0
	}
	fail := p.FirstFailProb
	for k := 0; k < p.MaxRetries; k++ {
		if rng.Float64() >= fail {
			return k
		}
		fail *= p.RetryDecay
	}
	return p.MaxRetries
}

// RBERCurve models the raw bit error rate as a function of program/erase
// wear and retention time, the standard two-term exponential fit used in
// flash characterization studies (e.g. Cai et al., "Flash
// Correct-and-Refresh", ICCD 2012). It is exposed so extensions can derive
// retry parameters from a wear level instead of a phase label.
type RBERCurve struct {
	Base         float64 // RBER of a fresh block read immediately
	WearCoeff    float64 // multiplier per 1000 P/E cycles
	RetentionExp float64 // growth exponent per retention day
}

// DefaultRBERCurve returns a curve calibrated so that a fresh device sits
// well below the 0.004 hard-decode limit from Table II and a device at
// 3000 P/E cycles with 90-day retention sits well above it.
func DefaultRBERCurve() RBERCurve {
	return RBERCurve{Base: 2e-4, WearCoeff: 0.9e-3, RetentionExp: 0.012}
}

// At returns the RBER after peCycles program/erase cycles and retentionDays
// days of retention.
func (c RBERCurve) At(peCycles int, retentionDays float64) float64 {
	if peCycles < 0 {
		peCycles = 0
	}
	if retentionDays < 0 {
		retentionDays = 0
	}
	wear := c.Base + c.WearCoeff*float64(peCycles)/1000.0
	return wear * math.Exp(c.RetentionExp*retentionDays)
}

// ParamsAt derives retry parameters from the curve: the failure probability
// of the hard decode grows smoothly as RBER crosses the hard limit.
func (c RBERCurve) ParamsAt(peCycles int, retentionDays float64, hardLimit float64, decode time.Duration) Params {
	rber := c.At(peCycles, retentionDays)
	p := Params{DecodeLatency: decode, RetryDecay: 0.25, MaxRetries: 4}
	if hardLimit <= 0 {
		hardLimit = 0.004
	}
	// Logistic ramp centred on the hard limit: negligible below it,
	// saturating toward 0.9 far above it.
	x := (rber - hardLimit) / hardLimit
	p.FirstFailProb = 0.9 / (1 + math.Exp(-10*x))
	if p.FirstFailProb < 1e-3 {
		p.FirstFailProb = 0
		p.MaxRetries = 0
		p.RetryDecay = 0
	}
	return p
}
