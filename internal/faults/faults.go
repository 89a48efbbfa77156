// Package faults is the deterministic fault-injection subsystem of the
// simulated storage stack. A Scenario describes, declaratively, the failure
// modes a run must survive: program/erase failures whose probability grows
// with per-block wear, whole-die and channel outages (permanent or timed
// windows), and transient read timeouts or latency spikes. An Injector
// instantiates a scenario for one device with a seeded random stream, so
// two runs of the same scenario on the same workload draw identical faults
// — fault campaigns are replayable bit for bit, and the CI determinism gate
// covers them like any other run.
//
// The injector is consulted by the layers the scenario stresses: the FTL
// asks it whether a program or erase fails (grown-bad-block management,
// internal/ftl), and the SSD host path asks it whether a die or channel is
// down and whether a read transiently times out (bounded retry-with-backoff,
// internal/ssd). The array layer (internal/array) reconstructs reads that
// still fail from parity peers. The injector itself holds no device state;
// it only answers questions, which keeps every recovery decision in the
// layer that owns it.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// Duration is a time.Duration that unmarshals from JSON either as an
// integer nanosecond count or as a Go duration string ("1.5ms", "2s"), so
// scenario files stay human-readable.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON accepts both 1500000 and "1.5ms".
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON writes the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// WearFailure is a wear-dependent failure probability: a program or erase
// of a block with e prior erase cycles fails with probability
//
//	min(Base + PerKCycle * e/1000, Max)
//
// matching the empirical observation that grown bad blocks appear at a rate
// that accelerates with P/E cycling.
type WearFailure struct {
	// Base is the failure probability of a fresh block.
	Base float64 `json:"base,omitempty"`
	// PerKCycle is the probability added per 1000 erase cycles.
	PerKCycle float64 `json:"per_k_cycle,omitempty"`
	// Max caps the probability; zero means 1.0.
	Max float64 `json:"max,omitempty"`
}

// At returns the failure probability at the given erase count.
func (w WearFailure) At(eraseCount int) float64 {
	if eraseCount < 0 {
		eraseCount = 0
	}
	p := w.Base + w.PerKCycle*float64(eraseCount)/1000.0
	limit := w.Max
	if limit == 0 {
		limit = 1.0
	}
	if p > limit {
		p = limit
	}
	if p < 0 {
		p = 0
	}
	return p
}

func (w WearFailure) validate(name string) error {
	if w.Base < 0 || w.Base > 1 {
		return fmt.Errorf("faults: %s.base %v out of [0,1]", name, w.Base)
	}
	if w.PerKCycle < 0 {
		return fmt.Errorf("faults: %s.per_k_cycle %v must be non-negative", name, w.PerKCycle)
	}
	if w.Max < 0 || w.Max > 1 {
		return fmt.Errorf("faults: %s.max %v out of [0,1]", name, w.Max)
	}
	return nil
}

// Outage takes one die or channel out of service. Outages are declarative:
// the window is fixed in simulated time, so the injector answers "is this
// unit down at instant t" purely from the scenario, with no random state.
type Outage struct {
	// Device selects the array member the outage applies to; -1 (or
	// omitted via the default 0 with single devices) applies to device 0.
	// Use -1 to hit every device.
	Device int `json:"device"`
	// Unit is the die index (for die outages) or channel index (for
	// channel outages) within the device.
	Unit int `json:"unit"`
	// After is the simulated instant (from the start of the measured
	// phase) the outage begins.
	After Duration `json:"after"`
	// For is the outage duration; zero means permanent.
	For Duration `json:"for,omitempty"`
}

// covers reports whether the outage applies to the device/unit at instant t.
func (o Outage) covers(device, unit int, t sim.Time) bool {
	if o.Device != -1 && o.Device != device {
		return false
	}
	if o.Unit != unit || t < sim.Time(o.After) {
		return false
	}
	return o.For == 0 || t < sim.Time(o.After)+sim.Time(o.For)
}

// ReadFaults injects transient read-path trouble: with TimeoutProb a read
// command hangs until the per-op timeout expires and must be retried; with
// SpikeProb it completes but takes Spike longer than normal (a one-off
// latency spike, e.g. a background calibration colliding with the read).
type ReadFaults struct {
	TimeoutProb float64  `json:"timeout_prob,omitempty"`
	SpikeProb   float64  `json:"spike_prob,omitempty"`
	Spike       Duration `json:"spike,omitempty"`
}

func (r ReadFaults) validate() error {
	if r.TimeoutProb < 0 || r.TimeoutProb > 1 {
		return fmt.Errorf("faults: read_faults.timeout_prob %v out of [0,1]", r.TimeoutProb)
	}
	if r.SpikeProb < 0 || r.SpikeProb > 1 {
		return fmt.Errorf("faults: read_faults.spike_prob %v out of [0,1]", r.SpikeProb)
	}
	if r.TimeoutProb+r.SpikeProb > 1 {
		return fmt.Errorf("faults: read_faults timeout_prob+spike_prob %v exceeds 1",
			r.TimeoutProb+r.SpikeProb)
	}
	if r.Spike < 0 {
		return fmt.Errorf("faults: read_faults.spike %v must be non-negative", r.Spike.D())
	}
	if r.SpikeProb > 0 && r.Spike == 0 {
		return fmt.Errorf("faults: read_faults.spike_prob set but spike is zero")
	}
	return nil
}

// Retry is the host-path recovery policy: how often a failed or timed-out
// flash operation is retried, how long the host backs off between attempts
// (doubling per attempt), and how long a command may run before the host
// declares it timed out.
type Retry struct {
	// Max is the retry budget per operation (attempts beyond the first).
	// Zero means DefaultMaxRetries.
	Max int `json:"max,omitempty"`
	// Backoff is the delay before the first retry; it doubles each
	// attempt. Zero means DefaultBackoff.
	Backoff Duration `json:"backoff,omitempty"`
	// OpTimeout is the per-operation timeout a hung command burns before
	// the host gives up on it. Zero means DefaultOpTimeout.
	OpTimeout Duration `json:"op_timeout,omitempty"`
}

// Default retry-policy values, chosen against the paper's Table II timing:
// the timeout comfortably covers a worst-case read (4 sensings + transfer +
// retries) and the backoff is one transfer time.
const (
	DefaultMaxRetries = 3
	DefaultBackoff    = Duration(50 * time.Microsecond)
	DefaultOpTimeout  = Duration(2 * time.Millisecond)
)

// withDefaults fills zero fields.
func (r Retry) withDefaults() Retry {
	if r.Max == 0 {
		r.Max = DefaultMaxRetries
	}
	if r.Backoff == 0 {
		r.Backoff = DefaultBackoff
	}
	if r.OpTimeout == 0 {
		r.OpTimeout = DefaultOpTimeout
	}
	return r
}

// BackoffAt returns the host-side delay before retry attempt k (0-based),
// doubling per attempt.
func (r Retry) BackoffAt(attempt int) time.Duration {
	b := r.Backoff.D()
	for i := 0; i < attempt && b < time.Second; i++ {
		b *= 2
	}
	return b
}

func (r Retry) validate() error {
	if r.Max < 0 {
		return fmt.Errorf("faults: retry.max %d must be non-negative", r.Max)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("faults: retry.backoff %v must be non-negative", r.Backoff.D())
	}
	if r.OpTimeout < 0 {
		return fmt.Errorf("faults: retry.op_timeout %v must be non-negative", r.OpTimeout.D())
	}
	return nil
}

// Scenario is a complete declarative fault campaign, loadable from JSON
// (cmd/idasim -faults <file>).
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Seed decorrelates the scenario's random draws from the device's own
	// randomness; the injector mixes it with the device seed.
	Seed int64 `json:"seed,omitempty"`
	// ProgramFail and EraseFail are the wear-dependent media failures.
	ProgramFail WearFailure `json:"program_fail,omitempty"`
	EraseFail   WearFailure `json:"erase_fail,omitempty"`
	// Dies and Channels list the outage windows.
	Dies     []Outage `json:"dies,omitempty"`
	Channels []Outage `json:"channels,omitempty"`
	// Read injects transient read-path faults.
	Read ReadFaults `json:"read_faults,omitempty"`
	// Retry is the host recovery policy.
	Retry Retry `json:"retry,omitempty"`
}

// Validate reports the first problem with the scenario, or nil.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	if err := s.ProgramFail.validate("program_fail"); err != nil {
		return err
	}
	if err := s.EraseFail.validate("erase_fail"); err != nil {
		return err
	}
	for i, o := range s.Dies {
		if o.Device < -1 {
			return fmt.Errorf("faults: dies[%d].device %d invalid (-1 means all)", i, o.Device)
		}
		if o.Unit < 0 {
			return fmt.Errorf("faults: dies[%d].unit %d must be non-negative", i, o.Unit)
		}
		if o.After < 0 || o.For < 0 {
			return fmt.Errorf("faults: dies[%d] has a negative window", i)
		}
	}
	for i, o := range s.Channels {
		if o.Device < -1 {
			return fmt.Errorf("faults: channels[%d].device %d invalid (-1 means all)", i, o.Device)
		}
		if o.Unit < 0 {
			return fmt.Errorf("faults: channels[%d].unit %d must be non-negative", i, o.Unit)
		}
		if o.After < 0 || o.For < 0 {
			return fmt.Errorf("faults: channels[%d] has a negative window", i)
		}
	}
	if err := s.Read.validate(); err != nil {
		return err
	}
	return s.Retry.validate()
}

// Load parses a scenario from a JSON file. Unknown fields are rejected so
// typos in scenario files fail loudly.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return &s, nil
}

// Injector answers fault questions for one device. All methods are nil-safe
// so call sites need no enabled/disabled branches beyond the pointer check
// the compiler already emits. An Injector belongs to one device's
// simulation goroutine; its random stream is consumed in event order, which
// is deterministic.
type Injector struct {
	sc     *Scenario
	device int
	retry  Retry
	// src counts the source-level draws behind rng so device-state
	// snapshots can record the stream position and SkipTo can replay it.
	src *sim.CountedSource
	rng *rand.Rand
}

// NewInjector instantiates the scenario for one device. seed is the
// device's own seed (already decorrelated per array member); device is the
// array member index outages are filtered by. A nil scenario returns a nil
// injector, which disables all injection.
func NewInjector(sc *Scenario, seed int64, device int) *Injector {
	if sc == nil {
		return nil
	}
	src := sim.NewCountedSource(seed ^ sc.Seed ^ 0x4641554C)
	return &Injector{
		sc:     sc,
		device: device,
		retry:  sc.Retry.withDefaults(),
		src:    src,
		rng:    rand.New(src),
	}
}

// Draws returns the number of random draws the injector has consumed — its
// position in the seeded fault stream. Zero for a nil injector. Device-state
// snapshots record it so a restored run's fault draws continue exactly where
// the captured run's would have.
func (i *Injector) Draws() uint64 {
	if i == nil {
		return 0
	}
	return i.src.Draws()
}

// SkipTo fast-forwards the injector's random stream to the given draw
// position, as recorded by Draws on the run being restored. The stream can
// only move forward; asking a nil injector to reach a non-zero position (or
// any injector to rewind) reports an error, which snapshot restores treat as
// a mis-keyed snapshot and fail soft to replay.
func (i *Injector) SkipTo(draws uint64) error {
	if i == nil {
		if draws != 0 {
			return fmt.Errorf("faults: snapshot recorded %d fault draws but the run has no scenario", draws)
		}
		return nil
	}
	cur := i.src.Draws()
	if cur > draws {
		return fmt.Errorf("faults: injector already consumed %d draws, cannot rewind to %d", cur, draws)
	}
	i.src.Skip(draws - cur)
	return nil
}

// Retry returns the defaulted retry policy (the zero policy when nil).
func (i *Injector) Retry() Retry {
	if i == nil {
		return Retry{}.withDefaults()
	}
	return i.retry
}

// ProgramFails draws whether a page program into the block fails, given the
// block's erase count. Implements ftl.FaultModel.
func (i *Injector) ProgramFails(_ flash.PageAddr, eraseCount int) bool {
	if i == nil {
		return false
	}
	p := i.sc.ProgramFail.At(eraseCount)
	return p > 0 && i.rng.Float64() < p
}

// EraseFails draws whether an erase of the block fails, given its erase
// count. Implements ftl.FaultModel.
func (i *Injector) EraseFails(_ flash.BlockAddr, eraseCount int) bool {
	if i == nil {
		return false
	}
	p := i.sc.EraseFail.At(eraseCount)
	return p > 0 && i.rng.Float64() < p
}

// DieDown reports whether the die is out of service at instant t.
func (i *Injector) DieDown(die int, t sim.Time) bool {
	if i == nil {
		return false
	}
	for _, o := range i.sc.Dies {
		if o.covers(i.device, die, t) {
			return true
		}
	}
	return false
}

// ChannelDown reports whether the channel is out of service at instant t.
func (i *Injector) ChannelDown(ch int, t sim.Time) bool {
	if i == nil {
		return false
	}
	for _, o := range i.sc.Channels {
		if o.covers(i.device, ch, t) {
			return true
		}
	}
	return false
}

// ReadFault draws the transient fate of one read command: a latency spike
// (extra > 0), a hang that burns the per-op timeout (timeout true), or
// neither. At most one applies per draw.
func (i *Injector) ReadFault() (extra time.Duration, timeout bool) {
	if i == nil {
		return 0, false
	}
	r := i.sc.Read
	if r.TimeoutProb == 0 && r.SpikeProb == 0 {
		return 0, false
	}
	u := i.rng.Float64()
	if u < r.TimeoutProb {
		return 0, true
	}
	if u < r.TimeoutProb+r.SpikeProb {
		return r.Spike.D(), false
	}
	return 0, false
}
