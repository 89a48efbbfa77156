package ecc

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPaperParams(t *testing.T) {
	early := PaperParams(PhaseEarly)
	if err := early.Validate(); err != nil {
		t.Fatal(err)
	}
	if early.FirstFailProb != 0 {
		t.Error("early phase should never retry")
	}
	late := PaperParams(PhaseLate)
	if err := late.Validate(); err != nil {
		t.Fatal(err)
	}
	if late.FirstFailProb <= 0 || late.MaxRetries == 0 {
		t.Error("late phase should retry")
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{DecodeLatency: 0},
		{DecodeLatency: time.Microsecond, FirstFailProb: -0.1},
		{DecodeLatency: time.Microsecond, FirstFailProb: 1.1},
		{DecodeLatency: time.Microsecond, RetryDecay: -0.5},
		{DecodeLatency: time.Microsecond, RetryDecay: 1.5},
		{DecodeLatency: time.Microsecond, MaxRetries: -1},
		{DecodeLatency: time.Microsecond, FirstFailProb: 0.5, MaxRetries: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

func TestSampleRetriesEarlyAlwaysZero(t *testing.T) {
	p := PaperParams(PhaseEarly)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p.SampleRetries(rng) != 0 {
			t.Fatal("early phase sampled a retry")
		}
	}
}

func TestSampleRetriesDistribution(t *testing.T) {
	p := PaperParams(PhaseLate)
	rng := rand.New(rand.NewSource(2))
	n := 200000
	sum := 0
	maxSeen := 0
	for i := 0; i < n; i++ {
		r := p.SampleRetries(rng)
		if r < 0 || r > p.MaxRetries {
			t.Fatalf("retries %d out of range", r)
		}
		sum += r
		if r > maxSeen {
			maxSeen = r
		}
	}
	got := float64(sum) / float64(n)
	want := expectedRetries(p)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("mean retries = %.4f, want %.4f", got, want)
	}
	if maxSeen == 0 {
		t.Error("late phase never retried across 200k samples")
	}
}

// expectedRetries is the mean of SampleRetries in closed form: E[R] is the
// sum over k >= 1 of P(R >= k), and P(R >= k) is the product of the first k
// failure probabilities.
func expectedRetries(p Params) float64 {
	if p.FirstFailProb == 0 || p.MaxRetries == 0 {
		return 0
	}
	e := 0.0
	reach := 1.0
	fail := p.FirstFailProb
	for k := 1; k <= p.MaxRetries; k++ {
		reach *= fail
		e += reach
		fail *= p.RetryDecay
	}
	return e
}

func TestExpectedRetriesClosedForm(t *testing.T) {
	// FirstFailProb f, decay d: E = f + f*(f*d) + f*(f*d)*(f*d^2) + ...
	p := Params{DecodeLatency: time.Microsecond, FirstFailProb: 0.4, RetryDecay: 0.25, MaxRetries: 4}
	want := 0.4 + 0.4*0.1 + 0.4*0.1*0.025 + 0.4*0.1*0.025*0.00625
	if got := expectedRetries(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("expected retries = %v, want %v", got, want)
	}
	if got := expectedRetries(PaperParams(PhaseEarly)); got != 0 {
		t.Errorf("early expected retries = %v", got)
	}
}

func TestRBERCurveMonotone(t *testing.T) {
	c := DefaultRBERCurve()
	prev := 0.0
	for pe := 0; pe <= 5000; pe += 500 {
		r := c.At(pe, 0)
		if r <= prev {
			t.Fatalf("RBER not increasing with wear at %d cycles", pe)
		}
		prev = r
	}
	prev = 0
	for days := 0.0; days <= 365; days += 30 {
		r := c.At(1000, days)
		if r <= prev {
			t.Fatalf("RBER not increasing with retention at %.0f days", days)
		}
		prev = r
	}
	// Negative inputs clamp rather than extrapolate.
	if c.At(-5, -10) != c.At(0, 0) {
		t.Error("negative wear/retention should clamp to zero")
	}
}

func TestRBERCurveRegimes(t *testing.T) {
	c := DefaultRBERCurve()
	if r := c.At(0, 1); r >= 0.004 {
		t.Errorf("fresh device RBER %.5f should be below the hard limit", r)
	}
	if r := c.At(3000, 90); r <= 0.004 {
		t.Errorf("worn device RBER %.5f should be above the hard limit", r)
	}
}

func TestParamsAt(t *testing.T) {
	c := DefaultRBERCurve()
	fresh := c.ParamsAt(0, 1, 0.004, 20*time.Microsecond)
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	if fresh.FirstFailProb != 0 {
		t.Errorf("fresh FirstFailProb = %v, want 0", fresh.FirstFailProb)
	}
	worn := c.ParamsAt(4000, 180, 0.004, 20*time.Microsecond)
	if err := worn.Validate(); err != nil {
		t.Fatal(err)
	}
	if worn.FirstFailProb <= 0.3 {
		t.Errorf("worn FirstFailProb = %v, want substantial", worn.FirstFailProb)
	}
	// Zero hard limit falls back to the default.
	if p := c.ParamsAt(0, 1, 0, 20*time.Microsecond); p.Validate() != nil {
		t.Error("zero hard limit should fall back cleanly")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseEarly.String() != "early" || PhaseLate.String() != "late" {
		t.Error("phase names wrong")
	}
	if LifetimePhase(9).String() == "" {
		t.Error("unknown phase should render")
	}
}
