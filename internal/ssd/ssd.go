// Package ssd assembles the full simulated device: the FTL state machine,
// the discrete-event engine, per-die and per-channel resources with
// read-first scheduling, the ECC/read-retry stage, and background garbage
// collection and data refresh. It is the counterpart of the paper's
// DiskSim+SSD setup (Section IV-A) with the flash timing, data refresh, and
// IDA coding modules built in.
package ssd

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"idaflash/internal/ecc"
	"idaflash/internal/faults"
	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/stats"
	"idaflash/internal/telemetry"
)

// Config describes a complete simulated SSD.
type Config struct {
	// Geometry is the physical shape. Required.
	Geometry flash.Geometry
	// Timing is the device timing. Required.
	Timing flash.TimingSpec
	// FTL carries the translation-layer options. Its Geometry field is
	// overwritten with Config.Geometry.
	FTL ftl.Options
	// ECC configures the decode/retry model; a zero value gets the
	// paper's early-lifetime parameters (20 us decode, no retries).
	ECC ecc.Params
	// RefreshScanInterval is how often the refresh manager scans for due
	// blocks; defaults to one simulated minute.
	RefreshScanInterval time.Duration
	// Scheduler selects the die/channel arbitration policy. Empty means
	// read-first, the paper's policy (and the only one that reproduces
	// its results bit for bit).
	Scheduler sim.Policy
	// SchedulerMaxWait bounds lower-class starvation under the age-aware
	// policy; zero uses sim.DefaultAgeAwareMaxWait. Ignored otherwise.
	SchedulerMaxWait time.Duration
	// Seed drives the device-level randomness (ECC retry draws).
	Seed int64
	// Faults, when non-nil, attaches a deterministic fault-injection
	// scenario (internal/faults): wear-dependent program/erase failures
	// handled by the FTL, die/channel outages and transient read faults
	// handled by the host issue path with bounded retry. The injector's
	// draws are seeded from Seed, so fault campaigns replay bit for bit.
	Faults *faults.Scenario
	// FaultDevice is this device's array member index, used to filter the
	// scenario's per-device outages (0 for a single device).
	FaultDevice int
	// Telemetry, when non-nil, attaches a lifecycle recorder: request
	// spans (sampled per Telemetry.SampleEvery) and, with a positive
	// MetricsInterval, a fixed-interval time series of queue depths,
	// utilization, and background activity. Results.Telemetry carries
	// the export. Nil keeps the hot path allocation-free.
	Telemetry *telemetry.Config
}

// schedulerConfig bundles the scheduling knobs for sim consumption.
func (c Config) schedulerConfig() sim.SchedulerConfig {
	return sim.SchedulerConfig{Policy: c.Scheduler, MaxWait: c.SchedulerMaxWait}
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Geometry.Validate(); err != nil {
		return c, err
	}
	if err := c.Timing.Validate(); err != nil {
		return c, err
	}
	if c.ECC.DecodeLatency == 0 {
		c.ECC = ecc.PaperParams(ecc.PhaseEarly)
		c.ECC.DecodeLatency = c.Timing.ECCDecode
	}
	if err := c.ECC.Validate(); err != nil {
		return c, err
	}
	if c.RefreshScanInterval == 0 {
		c.RefreshScanInterval = time.Minute
	}
	if c.RefreshScanInterval < 0 {
		return c, fmt.Errorf("ssd: RefreshScanInterval %v must be positive", c.RefreshScanInterval)
	}
	if c.Scheduler == "" {
		c.Scheduler = sim.PolicyReadFirst
	}
	if err := c.schedulerConfig().Validate(); err != nil {
		return c, err
	}
	if c.Telemetry != nil && c.Telemetry.MetricsInterval < 0 {
		return c, fmt.Errorf("ssd: Telemetry.MetricsInterval %v must be non-negative", c.Telemetry.MetricsInterval)
	}
	if err := c.Faults.Validate(); err != nil {
		return c, err
	}
	if c.FaultDevice < 0 {
		return c, fmt.Errorf("ssd: FaultDevice %d must be non-negative", c.FaultDevice)
	}
	c.FTL.Geometry = c.Geometry
	return c, nil
}

// rngSeedMask decorrelates the device's random stream (ECC retry sampling)
// from the raw device seed.
const rngSeedMask = 0x53534421

// SSD is one simulated device instance. Like the engine it runs on, it is
// single-goroutine by design: only a timed replay hands its FTL to a stage
// goroutine of its own for the replay's duration (stage.go).
type SSD struct {
	cfg    Config
	engine *sim.Engine
	f      *ftl.FTL
	rng    *rand.Rand

	dies     []*sim.Resource
	channels []*sim.Resource
	planes   []planeRes // by PlaneID, built once: the geometry is fixed

	// readHolds[n-1] is readHold(n) for every sensing count the FTL
	// allows, rebuilt from the timing at every Reset with the same
	// expression, so each value is bit-identical.
	readHolds [len(ftl.Stats{}.ReadsBySenses) - 1]time.Duration

	pageSize int

	// Request-path instrumentation (see host.go for the pipeline
	// overview) and the number of host requests in service.
	stages   StageStats
	inFlight int

	// Free lists for the hot-path state (flashio.go, host.go): page
	// operations and request records recycle through these instead of
	// allocating per page/request. Sized by the peak in-flight depth.
	readOps  []*readOp
	writeOps []*writeOp
	requests []*request

	// Free list for background charging (background.go): GC and refresh
	// jobs both run on the one pooled state machine, bgOp. The scan tick
	// is a single reusable Action.
	bgOps []*bgOp
	scan  *refreshScan

	// The timed replay's arrival stream and its FTL stage (stage.go),
	// which makes every FTL call of the replay.
	feeder arrivalFeeder
	stage  *ftlStage

	// Fault injection (nil injector when no scenario is attached; see
	// faults.go for the recovery path).
	inj         *faults.Injector
	faultStats  FaultStats
	failedReads []FailedExtent

	// Host-visible accounting.
	lastHostDone sim.Time
	busyStart    sim.Time
	busySpan     time.Duration
	phaseStart   sim.Time
	readResp     stats.LatencyHist
	writeResp    stats.LatencyHist
	readBytes    uint64
	writeBytes   uint64
	readReqs     uint64
	writeReqs    uint64

	// Background accounting.
	gcBusy      time.Duration
	refreshBusy time.Duration
	peakInUse   int
	peakIDA     int

	scanning bool

	// Telemetry (nil when disabled; see telemetry.go).
	tel                 *telemetry.Recorder
	dieWatch, chanWatch *resourceWatch
	lastTotals          sampleTotals
	lastPerChanBusy     []time.Duration
}

// New builds an SSD from the config. It allocates only what the geometry
// fixes — the engine and the die and channel slots — and leaves every other
// field, the FTL included, to Reset, the one initializer.
func New(cfg Config) (*SSD, error) {
	g := cfg.Geometry
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &SSD{
		cfg:      Config{Geometry: g},
		engine:   sim.NewEngine(),
		dies:     make([]*sim.Resource, g.Dies()),
		channels: make([]*sim.Resource, g.Channels),
	}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the device to the state New(cfg) would produce, reusing the
// structures that dominate construction cost: the engine's event array, the
// FTL's dense L2P and block tables (cleared in place by ftl.Reset), the
// scheduler ring buffers, the latency-histogram buckets, and the op/request
// free lists all keep their backing storage, and the rng is reseeded. The
// geometry must match the one the device was built with — every table is
// sized for it — so pooled devices are keyed by geometry; any other config
// field may change between runs. A reset device is observably identical to
// a fresh one: same rng streams, same resource state, same zeroed
// accounting.
//
// Reset must not be called while a run is in progress. It validates cfg
// before it changes anything: on error the device is untouched and stays
// usable.
func (s *SSD) Reset(cfg Config) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if cfg.Geometry != s.cfg.Geometry {
		return fmt.Errorf("ssd: reset geometry %+v does not match device %+v", cfg.Geometry, s.cfg.Geometry)
	}
	// The telemetry recorder and the fault injector are rebuilt per run,
	// never pooled: exported spans and series outlive the run, and the
	// injector is cheap and seed-derived. The injector feeds the FTL's
	// FaultModel seam, so it exists before the FTL is built or reset. Only
	// a non-nil injector is installed: a typed nil in the interface would
	// defeat the FTL's nil check.
	var tel *telemetry.Recorder
	var dieWatch, chanWatch *resourceWatch
	if cfg.Telemetry != nil {
		tel, dieWatch, chanWatch = telemetry.New(*cfg.Telemetry), &resourceWatch{}, &resourceWatch{}
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(cfg.Faults, cfg.Seed, cfg.FaultDevice)
		cfg.FTL.Faults = inj
	}
	// The FTL validates before it commits too, so its rejection also
	// leaves the device untouched.
	f := s.f
	if f == nil {
		f, err = ftl.New(cfg.FTL)
	} else {
		err = f.Reset(cfg.FTL)
	}
	if err != nil {
		return err
	}

	// Validation passed; everything below is infallible.
	s.engine.Reset()
	// The rng is reseeded in place: Seed reinitializes the source fully,
	// so the stream is the one a new source with this seed would give.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed ^ rngSeedMask))
	} else {
		s.rng.Seed(cfg.Seed ^ rngSeedMask)
	}
	s.readResp.Reset()
	s.writeResp.Reset()
	// The keep-list: the pooled storage above the blank line survives, the
	// per-run objects below it are installed, and every field left off
	// starts from its zero value, exactly as in a new device.
	*s = SSD{
		engine: s.engine, rng: s.rng, dies: s.dies, channels: s.channels, planes: s.planes, readResp: s.readResp, writeResp: s.writeResp,
		readOps: s.readOps, writeOps: s.writeOps, requests: s.requests,
		bgOps: s.bgOps, scan: s.scan, stage: s.stage,

		cfg: cfg, f: f, pageSize: cfg.Geometry.PageSizeBytes,
		inj: inj, tel: tel, dieWatch: dieWatch, chanWatch: chanWatch,
	}
	if s.stage == nil {
		s.stage = newStage(s)
	}
	s.stage.bind()
	s.resetResources(s.dies, "die", dieWatch)
	s.resetResources(s.channels, "ch", chanWatch)
	if s.planes == nil {
		g := cfg.Geometry
		s.planes = make([]planeRes, g.Planes())
		for pl := range s.planes {
			s.planes[pl] = planeRes{s.dies[g.DieOf(flash.PlaneID(pl))], s.channels[g.ChannelOf(flash.PlaneID(pl))]}
		}
	}
	for i := range s.readHolds {
		s.readHolds[i] = cfg.Timing.ReadLatency(i+1) + cfg.Timing.Transfer
	}
	return nil
}

// resetResources is the one loop over a group of resources (the dies, or
// the channels): each is built on first use and reset in place under the
// run's scheduling policy; then the telemetry watch, if any, is attached.
func (s *SSD) resetResources(rs []*sim.Resource, name string, watch *resourceWatch) {
	for i, r := range rs {
		if r == nil {
			r = sim.NewResource(s.engine, name+strconv.Itoa(i))
			rs[i] = r
		}
		r.Reset(s.cfg.schedulerConfig())
		if watch != nil {
			r.SetHook(watch)
		}
	}
}

// fail aborts the in-progress run: the engine's loop stops after the event
// in flight and the run returns err. First error wins; callbacks use it to
// turn mid-simulation FTL failures into a failed run instead of a panic.
func (s *SSD) fail(err error) { s.engine.Stop(err) }

// ResponseHists returns the device's live read and write response-time
// histograms, the populations behind its Results' means and quantiles.
// They belong to the device, and its next Reset clears them: an array
// pools its members' histograms after the run and before the devices go
// back to their arena.
func (s *SSD) ResponseHists() (read, write *stats.LatencyHist) { return &s.readResp, &s.writeResp }

// Engine exposes the simulation engine (tests and advanced drivers).
func (s *SSD) Engine() *sim.Engine { return s.engine }

// FTL exposes the translation layer (tests and experiments).
func (s *SSD) FTL() *ftl.FTL { return s.f }

// Config returns the configuration after defaulting.
func (s *SSD) Config() Config { return s.cfg }

// planeRes is the die and the channel serving one plane.
type planeRes struct{ die, channel *sim.Resource }

// dieOf returns the die resource serving a flash address.
func (s *SSD) dieOf(a flash.PageAddr) *sim.Resource { return s.planes[a.Plane].die }

// channelOf returns the channel resource serving a flash address.
func (s *SSD) channelOf(a flash.PageAddr) *sim.Resource { return s.planes[a.Plane].channel }

// readHold returns the channel hold of a first-round page read with n
// sensings, tR(n) plus the transfer out. Like flash.ReadLatency it panics
// for n < 1, as it does for a count past the FTL's sensing bound.
func (s *SSD) readHold(n int) time.Duration { return s.readHolds[n-1] }
