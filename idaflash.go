// Package idaflash is a discrete-event SSD simulator reproducing "Invalid
// Data-Aware Coding to Enhance the Read Performance of High-Density Flash
// Memories" (Choi, Jung, Kandemir; MICRO 2018).
//
// High-density (MLC/TLC/QLC) flash stores several logical pages per
// wordline, and the slower pages need more wordline sensings to read. The
// paper's observation: once the fast (LSB) page of a wordline is
// invalidated by an overwrite, the conventional coding keeps paying the
// full sensing cost for the remaining pages. Its IDA coding merges the
// now-duplicated voltage states during the periodic data refresh, cutting
// CSB reads from two sensings to one and MSB reads from four to two (or
// one), at no reliability cost because refresh already holds an error-free
// copy of every page.
//
// This package is the public facade: device construction, workload
// profiles matching the paper's Table III, and a one-call experiment
// runner. The substrates live in internal/ packages (coding, flash, sim,
// ecc, ftl, ssd, workload) and are re-exported here as type aliases where
// users need them.
//
// Quick start:
//
//	profile, _ := idaflash.ProfileByName("usr_1", 20000)
//	base, _ := idaflash.RunWorkload(profile, idaflash.Baseline())
//	ida, _ := idaflash.RunWorkload(profile, idaflash.IDA(0.20))
//	fmt.Printf("read response: %v -> %v\n",
//		base.MeanReadResponse, ida.MeanReadResponse)
package idaflash

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"idaflash/internal/array"
	"idaflash/internal/coding"
	"idaflash/internal/ecc"
	"idaflash/internal/faults"
	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/results"
	"idaflash/internal/runpool"
	"idaflash/internal/sim"
	"idaflash/internal/snapshot"
	"idaflash/internal/ssd"
	"idaflash/internal/telemetry"
	"idaflash/internal/workload"
)

// Re-exported building blocks. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// Profile parameterizes the synthetic workload generator.
	Profile = workload.Profile
	// Trace is an ordered host request stream.
	Trace = workload.Trace
	// Request is one host I/O.
	Request = workload.Request
	// TraceStats are Table III-style trace characteristics.
	TraceStats = workload.TraceStats
	// Geometry is the physical device shape.
	Geometry = flash.Geometry
	// TimingSpec is the device timing (reads, program, erase, bus, ECC).
	TimingSpec = flash.TimingSpec
	// Scheme is a cell coding (state-to-bits assignment).
	Scheme = coding.Scheme
	// Code is the pluggable coding-scheme interface every simulator layer
	// programs against: state map, sensing counts, IDA merge rules, and
	// per-program power/wear cost hooks.
	Code = coding.Code
	// CellCost is a code's per-program power/wear proxy.
	CellCost = coding.CellCost
	// PageType identifies a page within a wordline (LSB/CSB/MSB/...).
	PageType = coding.PageType
	// ValidMask records which pages of a wordline are still valid.
	ValidMask = coding.ValidMask
	// Merged is the result of the IDA voltage adjustment on a wordline.
	Merged = coding.Merged
	// Plan is the per-wordline Table I refresh decision.
	Plan = coding.Plan
	// SSD is a simulated device instance.
	SSD = ssd.SSD
	// SSDConfig fully describes a device.
	SSDConfig = ssd.Config
	// FTLOptions configures the translation layer.
	FTLOptions = ftl.Options
	// ECCParams configures the decode/read-retry model.
	ECCParams = ecc.Params
	// LifetimePhase selects the early or late device-age regime.
	LifetimePhase = ecc.LifetimePhase
	// Results carries everything one simulation run measures.
	Results = ssd.Results
	// RunOptions carries a run's aging preamble and snapshot store.
	RunOptions = ssd.RunOptions
	// SchedulerPolicy names a die/channel scheduling discipline.
	SchedulerPolicy = sim.Policy
	// Array is a striped multi-device set of SSDs.
	Array = array.Array
	// ArrayConfig describes a striped array topology.
	ArrayConfig = array.Config
	// ArrayResults pairs merged and per-device array measurements.
	ArrayResults = array.Results
	// FaultScenario is a declarative, replayable fault campaign (wear
	// failures, die/channel outages, transient read faults).
	FaultScenario = faults.Scenario
	// FaultStats accounts the host-path fault recovery of one device.
	FaultStats = ssd.FaultStats
	// DegradedStats accounts an array's post-run parity reconstruction.
	DegradedStats = array.DegradedStats
	// TelemetryConfig parameterizes the request-lifecycle recorder (span
	// sampling, ring capacity, time-series interval).
	TelemetryConfig = telemetry.Config
	// TelemetryExport is a recorded span/time-series snapshot, writable
	// as Chrome/Perfetto trace JSON or metrics CSV.
	TelemetryExport = telemetry.Export
	// InvariantError is a contained simulation invariant violation: the
	// recovered panic value plus the engine position and stack at capture.
	InvariantError = sim.InvariantError
)

// Scheduling policies for System.Scheduler and SSDConfig.Scheduler.
const (
	// SchedReadFirst is the paper's policy: reads overtake writes, both
	// overtake background work. The default.
	SchedReadFirst = sim.PolicyReadFirst
	// SchedFIFO serves die/channel queues strictly in arrival order.
	SchedFIFO = sim.PolicyFIFO
	// SchedAgeAware is read-first with a starvation bound for writes and
	// background work.
	SchedAgeAware = sim.PolicyAgeAware
)

// SchedulerPolicies lists the selectable policies.
func SchedulerPolicies() []SchedulerPolicy { return sim.Policies() }

// ParseSchedulerPolicy validates a policy name ("" means read-first).
func ParseSchedulerPolicy(s string) (SchedulerPolicy, error) { return sim.ParsePolicy(s) }

// NewArray builds a striped multi-device array.
func NewArray(cfg ArrayConfig) (*Array, error) { return array.New(cfg) }

// LoadFaultScenario parses a fault scenario from a JSON file (the format
// behind cmd/idasim's -faults flag). Unknown fields are rejected.
func LoadFaultScenario(path string) (*FaultScenario, error) { return faults.Load(path) }

// Lifetime phases (Figure 11).
const (
	PhaseEarly = ecc.PhaseEarly
	PhaseLate  = ecc.PhaseLate
)

// Conventional TLC page names.
const (
	LSB = coding.LSB
	CSB = coding.CSB
	MSB = coding.MSB
)

// MaskAll returns the wordline validity mask with the lowest n pages valid.
func MaskAll(n int) ValidMask { return coding.MaskAll(n) }

// NewSSD builds a simulated device.
func NewSSD(cfg SSDConfig) (*SSD, error) { return ssd.New(cfg) }

// NewGrayCoding returns the standard Gray coding for the given bits/cell
// (Figure 2 for TLC, Figure 6 for QLC).
func NewGrayCoding(bits int) *Scheme { return coding.NewGray(bits) }

// Vendor232TLC returns the alternative 2-3-2 TLC coding from Section III-B.
func Vendor232TLC() *Scheme { return coding.Vendor232TLC() }

// Registered coding-scheme names for System.Coding, idasim -coding, and the
// server's "coding" request field.
const (
	// CodingIDA is the paper's Gray (or vendor 2-3-2) map with IDA merges.
	CodingIDA = coding.CodeIDA
	// CodingRandIO is Sharon/Alrod random-I/O coding: balanced per-page
	// sensing counts, no page pays the Gray MSB's worst case.
	CodingRandIO = coding.CodeRandIO
	// CodingILWC is inverted limited-weight coding: Gray latency with a
	// programmed-cell population biased toward low voltage states.
	CodingILWC = coding.CodeILWC
)

// CodingNames lists the selectable coding schemes, sorted.
func CodingNames() []string { return coding.Names() }

// ParseCoding validates a coding-scheme name ("" selects the default,
// CodingIDA) without needing a bit density. The returned name is the
// canonical registry name.
func ParseCoding(s string) (string, error) {
	if s == "" {
		return coding.DefaultCode, nil
	}
	for _, name := range coding.Names() {
		if s == name {
			return s, nil
		}
	}
	return "", &ConfigError{Field: "Coding", Reason: fmt.Sprintf("unknown coding %q (known: %v)", s, coding.Names())}
}

// NewCoding builds a registered coding scheme for the given bits per cell.
func NewCoding(name string, bits int) (Code, error) { return coding.New(name, bits) }

// ConfigError is a typed, fielded rejection of a System/Profile combination:
// every validation failure BuildConfig can produce (unknown coding scheme,
// coding/geometry mismatch, conflicting knobs, out-of-range rates) is one of
// these, so callers can distinguish "your request is wrong" from "the
// simulation failed" with IsConfigError and surface Field/Reason
// structurally (the HTTP server maps them to 400s).
type ConfigError struct {
	// Field names the System or Profile field that was rejected.
	Field string
	// Reason says what was wrong with it.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("idaflash: invalid %s: %s", e.Field, e.Reason)
}

// IsConfigError reports whether err is (or wraps) a configuration
// validation failure rather than a simulation failure.
func IsConfigError(err error) bool {
	var ce *ConfigError
	return errors.As(err, &ce)
}

// PaperGeometry returns the Table II 512 GB TLC device shape.
func PaperGeometry() Geometry { return flash.PaperTLC() }

// PaperTiming returns the Table II TLC timing values.
func PaperTiming() TimingSpec { return flash.PaperTLCTiming() }

// PaperMLCTiming returns the Section V-G MLC timing values.
func PaperMLCTiming() TimingSpec { return flash.PaperMLCTiming() }

// PaperProfiles returns the eleven synthetic stand-ins for the paper's MSR
// Cambridge workloads (Table III).
func PaperProfiles(requests int) []Profile { return workload.PaperProfiles(requests) }

// ExtraProfiles returns the nine additional read-ratio-categorized
// workloads of Figure 4 (right).
func ExtraProfiles(requests int) []Profile { return workload.ExtraProfiles(requests) }

// ProfileByName looks up a paper or extra profile.
func ProfileByName(name string, requests int) (Profile, error) {
	return workload.ProfileByName(name, requests)
}

// System describes one of the evaluated device configurations (Section
// IV-C): the baseline, or IDA coding under an error rate, possibly with
// modified timing, bit density, or lifetime phase.
type System struct {
	// Name labels the system in reports ("Baseline", "IDA-E20", ...).
	Name string
	// IDA enables the invalid-data-aware refresh.
	IDA bool
	// ErrorRate is the voltage-adjustment corruption probability
	// (0.20 for the paper's IDA-Coding-E20).
	ErrorRate float64
	// DeltaTR overrides the read-latency step between page types
	// (Figure 9); zero keeps the device default (50 us).
	DeltaTR time.Duration
	// BitsPerCell selects the density: 0 or 3 for TLC, 2 for MLC
	// (Table V), 4 for QLC (the paper's future-work extension).
	BitsPerCell int
	// Lifetime selects the ECC regime (Figure 11); default early.
	// Mutually exclusive with PECycles/RetentionDays.
	Lifetime LifetimePhase
	// PECycles and RetentionDays, when either is positive, derive the ECC
	// retry regime from the RBER wear curve (ecc.RBERCurve.ParamsAt)
	// instead of the coarse early/late phase label: the hard-decode
	// failure probability grows as the modeled raw bit error rate at this
	// wear level and retention age crosses the hard-decode limit. Cannot
	// be combined with Lifetime = PhaseLate.
	PECycles      int
	RetentionDays float64
	// OnlyInvalid restricts IDA to wordlines that already lost a lower
	// page (Table I cases 2-4, skipping the case-1 conversion of
	// fully-valid wordlines). Ablation knob.
	OnlyInvalid bool
	// FastAdjust charges the voltage adjustment at half a program
	// latency — the paper's Section III-B estimate — instead of the
	// conservative full program the evaluation uses. Ablation knob.
	FastAdjust bool
	// TightSpace sizes the device with only ~30% headroom over the
	// workload footprint instead of the default 100%, approximating the
	// paper's "user space fully utilized plus 15% over-provisioning"
	// condition for the write-interference analysis (Section III-C).
	TightSpace bool
	// Coding selects the cell coding scheme by registry name: CodingIDA
	// (default), CodingRandIO, or CodingILWC. The name is validated
	// against the registry and the device geometry (randio is capped at
	// 4 bits/cell) by BuildConfig, which rejects mismatches with a
	// *ConfigError.
	Coding string
	// Vendor232 uses the alternative vendor TLC coding from Section
	// III-B (2/3/2 sensings for LSB/CSB/MSB) instead of the standard
	// Gray coding, exercising the paper's claim that IDA combines with
	// any coding scheme. Only valid with 3 bits/cell and the default
	// (ida) coding.
	Vendor232 bool
	// Scheduler selects the die/channel arbitration policy: SchedReadFirst
	// (default, the paper's), SchedFIFO, or SchedAgeAware.
	Scheduler SchedulerPolicy
	// SchedulerMaxWait bounds write/background starvation under
	// SchedAgeAware; zero uses the built-in default. Ignored otherwise.
	SchedulerMaxWait time.Duration
	// Devices stripes the workload RAID-0-style across this many
	// independent devices, each sized for its share of the footprint.
	// 0 or 1 means a single device: a one-member array holding the whole
	// footprint.
	Devices int
	// StripeKB is the array stripe unit in KiB; zero uses the array
	// default (64). Only meaningful with Devices > 1.
	StripeKB int
	// Parity rotates a RAID-5-style parity stripe across the array so
	// reads that fail outright under a fault scenario are reconstructed
	// from the surviving devices in a degraded-mode pass after the run.
	// Requires Devices >= 3.
	Parity bool
	// Faults, when non-nil, runs the workload under a deterministic fault
	// scenario: wear-dependent program/erase failures (grown bad blocks,
	// remapped and retired by the FTL), die/channel outages, and transient
	// read faults, all recovered through bounded host-path retries.
	// Results.Faults and Results.FTL carry the recovery accounting.
	Faults *FaultScenario
	// Telemetry, when non-nil, attaches the request-lifecycle recorder
	// to every device built for this system: sampled per-request spans
	// (exportable as Perfetto trace JSON) and, with a positive
	// MetricsInterval, a time series of queue depths, utilization, and
	// merge-state populations (exportable as CSV). Results.Telemetry
	// carries the export; for arrays, the per-device streams are merged.
	// Nil (the default) keeps the simulation hot path allocation-free.
	Telemetry *TelemetryConfig
	// NoSnapshot opts this run out of device-state snapshot reuse: the
	// aging preamble, prefill, and warmup are replayed from scratch
	// instead of restored from DefaultSnapshots. Snapshots are on by
	// default because restored runs are byte-identical to replayed ones
	// (the CI snapshot-equivalence job gates that); the knob exists for
	// A/B-verifying exactly that, and for callers who want a sweep's
	// memory back.
	NoSnapshot bool
	// NoPool opts this run out of the device arena (DefaultArena): the
	// simulation runs on a freshly constructed device and the device is
	// not parked for reuse afterwards. Pooled runs are byte-identical to
	// unpooled ones (the reuse-equivalence tests gate that); the knob
	// exists for A/B-verifying exactly that and for one-off runs that
	// should not retain a device's memory.
	NoPool bool
}

// Baseline returns the paper's baseline system.
func Baseline() System { return System{Name: "Baseline"} }

// IDA returns the IDA-coding system with the given voltage-adjustment error
// rate (e.g. 0.20 for IDA-Coding-E20).
func IDA(errorRate float64) System {
	return System{Name: fmt.Sprintf("IDA-E%d", int(errorRate*100+0.5)), IDA: true, ErrorRate: errorRate}
}

// BuildConfig assembles the full SSD configuration for a workload profile
// under a system description: trace-sized geometry, bit-density-specific
// timing and coding, refresh period, and the ECC regime.
func BuildConfig(p Profile, sys System) (SSDConfig, Profile, error) {
	p, err := p.Normalize()
	if err != nil {
		return SSDConfig{}, p, err
	}
	bits := sys.BitsPerCell
	if bits == 0 {
		bits = 3
	}
	if bits < 2 || bits > 4 {
		return SSDConfig{}, p, &ConfigError{Field: "BitsPerCell", Reason: fmt.Sprintf("%d unsupported (2-4)", bits)}
	}
	codingName, err := ParseCoding(sys.Coding)
	if err != nil {
		return SSDConfig{}, p, err
	}
	var code Code
	if sys.Vendor232 {
		if codingName != CodingIDA {
			return SSDConfig{}, p, &ConfigError{Field: "Vendor232",
				Reason: fmt.Sprintf("only combines with the %q coding, not %q", CodingIDA, codingName)}
		}
		if bits != 3 {
			return SSDConfig{}, p, &ConfigError{Field: "Vendor232", Reason: fmt.Sprintf("needs 3 bits/cell, got %d", bits)}
		}
		code = coding.Vendor232TLC()
	} else {
		code, err = coding.New(codingName, bits)
		if err != nil {
			// The registry rejects codes that cannot cover the
			// geometry (e.g. randio beyond 4 bits/cell).
			return SSDConfig{}, p, &ConfigError{Field: "Coding", Reason: err.Error()}
		}
	}

	// Parallelism is scaled down 4x from the paper's 64-plane device
	// (the trace request budget is scaled down correspondingly), keeping
	// the 4-channel topology and the 192-page block shape; the block
	// count then scales with the workload footprint.
	base := flash.PaperTLC()
	base.BitsPerCell = bits
	base.ChipsPerChannel = 2
	base.PlanesPerDie = 1
	headroom := 2.0
	if sys.TightSpace {
		headroom = 1.3
	}
	geom := ssd.ScaledGeometry(base, int64(p.FootprintMB*(1<<20)), headroom)

	timing := flash.PaperTLCTiming()
	if bits == 2 {
		timing = flash.PaperMLCTiming()
	}
	if sys.DeltaTR != 0 {
		timing = timing.WithReadDelta(sys.DeltaTR)
	}
	if sys.FastAdjust {
		timing.VoltAdjust = timing.Program / 2
	}

	if sys.PECycles < 0 {
		return SSDConfig{}, p, &ConfigError{Field: "PECycles", Reason: fmt.Sprintf("%d must be non-negative", sys.PECycles)}
	}
	if sys.RetentionDays < 0 {
		return SSDConfig{}, p, &ConfigError{Field: "RetentionDays", Reason: fmt.Sprintf("%v must be non-negative", sys.RetentionDays)}
	}
	var eccParams ECCParams
	if sys.PECycles > 0 || sys.RetentionDays > 0 {
		if sys.Lifetime != PhaseEarly {
			return SSDConfig{}, p, &ConfigError{Field: "PECycles",
				Reason: fmt.Sprintf("PECycles/RetentionDays and Lifetime=%v are mutually exclusive", sys.Lifetime)}
		}
		// Derive the retry regime from the wear curve instead of the
		// early/late phase label; zero hard limit means the Table II
		// default (0.004).
		eccParams = ecc.DefaultRBERCurve().ParamsAt(
			sys.PECycles, sys.RetentionDays, 0, timing.ECCDecode)
	} else {
		eccParams = ecc.PaperParams(sys.Lifetime)
		eccParams.DecodeLatency = timing.ECCDecode
	}

	cfg := SSDConfig{
		Geometry: geom,
		Timing:   timing,
		FTL: ftl.Options{
			Code:           code,
			IDAEnabled:     sys.IDA,
			IDAOnlyInvalid: sys.OnlyInvalid,
			ErrorRate:      sys.ErrorRate,
			// Many refresh cycles per measured window, standing in
			// for the paper's "3 days to 3 months" scaled to the
			// trace span, so the IDA/conventional block rotation
			// reaches steady state well inside the measurement.
			RefreshPeriod: p.Duration / 6,
			// Slow planes must still rotate their open blocks so
			// recently-written (hot) wordlines reach the refresher.
			MaxOpenBlockAge: p.Duration / 12,
			Seed:            p.Seed,
		},
		ECC:                 eccParams,
		RefreshScanInterval: p.Duration / 300,
		Scheduler:           sys.Scheduler,
		SchedulerMaxWait:    sys.SchedulerMaxWait,
		Seed:                p.Seed,
		Faults:              sys.Faults,
	}
	if sys.Telemetry != nil {
		// Copy so callers can reuse one System across runs without the
		// devices aliasing (and mutating) the same config.
		tc := *sys.Telemetry
		cfg.Telemetry = &tc
	}
	return cfg, p, nil
}

// DefaultSnapshots is the process-wide device-state snapshot store behind
// RunWorkload and RunArrayWorkload: the aged pre-measurement state of every
// (profile, device-shape) combination is captured once and restored in
// O(state) by every later run sharing it, so a sweep pays for prefill, the
// aging preamble, and warmup once per profile instead of once per system
// variant. The in-memory tier is always on (bounded, LRU-evicted); attach
// a persistent on-disk tier with SetStoreDir. Restored runs are
// byte-identical to replayed ones, and corrupt or version-skewed snapshots
// fall back to replay silently.
var DefaultSnapshots = snapshot.NewStore(0)

// DefaultArena pools fully-built simulation devices between runs, keyed by
// geometry: a sweep worker's next point resets the previous point's device
// in place (event array, dense L2P, block tables, histograms, op pools all
// reused) instead of reallocating them. Checkout and return are automatic
// in every run entry point; System.NoPool opts a run out. Devices
// are only parked after cleanly completed runs, so a failed or cancelled
// run can never leak mid-run state into a later one.
var DefaultArena = runpool.New(0)

// arena is the device arena the system's runs check devices out of:
// DefaultArena, or nil — fresh devices, never pooled — under NoPool.
func (sys System) arena() *runpool.Arena {
	if sys.NoPool {
		return nil
	}
	return DefaultArena
}

// PoolStats is the device arena's traffic counters (see runpool.Stats).
type PoolStats = runpool.Stats

// ArenaStats returns a snapshot of DefaultArena's reuse counters, for
// service-mode observability (/statz) and tests.
func ArenaStats() PoolStats { return DefaultArena.Stats() }

// ExtSnapshot and ExtResult are the blob kinds the shared store root
// serves: aged device states and canonical simulation result payloads,
// content-addressed side by side under one eviction budget.
const (
	ExtSnapshot = ".snap"
	ExtResult   = ".json"
)

var (
	storeMu   sync.Mutex
	storeDisk *results.Disk
)

// SetStoreDir attaches the process-wide content-addressed store root
// (idasim/idaserver -store-dir): one LRU-bounded directory holding both
// aged device-state snapshots (wired into DefaultSnapshots) and — when the
// HTTP service runs — simulation result payloads, under a single shared
// eviction budget. Blobs are written atomically, survive the process, and
// every corruption or version-skew failure mode degrades to a cache miss.
// An empty dir detaches the root.
func SetStoreDir(dir string) error { return SetStoreDirSync(dir, false) }

// SetStoreDirSync is SetStoreDir with an explicit durability policy: with
// sync, every blob write fsyncs the file and its directory, so committed
// blobs survive power loss instead of just process death. The default stays
// off — blobs are a cache, and a lost one is a miss — behind the
// -store-sync flag on idasim and idaserver for deployments where the
// store's warmth is worth a sync per write. (The farm's job journal always
// syncs, regardless of this setting: jobs are promises, not caches.)
func SetStoreDirSync(dir string, sync bool) error {
	storeMu.Lock()
	defer storeMu.Unlock()
	if dir == "" {
		storeDisk = nil
		DefaultSnapshots.SetBlobs(nil)
		return nil
	}
	d, err := results.OpenDiskOptions(dir, results.DiskOptions{Sync: sync})
	if err != nil {
		return err
	}
	storeDisk = d
	DefaultSnapshots.SetBlobs(d.Sub(ExtSnapshot))
	return nil
}

// StoreDisk returns the shared store root attached by SetStoreDir (nil when
// detached), for callers — the HTTP server's result store — that layer
// further blob kinds onto the same budget.
func StoreDisk() *results.Disk {
	storeMu.Lock()
	defer storeMu.Unlock()
	return storeDisk
}

// snapshotKeyData is everything the aged pre-measurement device state is a
// function of. Deliberately absent: the coding scheme, IDA knobs, error
// rate, scheduler, timing, ECC, and telemetry — none of them influence the
// zero-time phases (refresh and IDA only engage in the timed phase, the
// engine never runs before the boundary, and the code-dependent power
// accumulators are wiped by the post-boundary stats reset) — so the
// baseline, every IDA error-rate point, and every coding/scheduler variant
// of one profile share a single snapshot.
type snapshotKeyData struct {
	Codec           uint32
	Profile         Profile
	Geometry        Geometry
	Order           flash.OrderKind
	GCFreeBlocks    int
	RefreshPeriod   time.Duration
	MaxOpenBlockAge time.Duration
	FTLSeed         int64
	Seed            int64
	Faults          *FaultScenario
}

// snapshotKey builds the cache key for one device's aged state. It fails
// soft like the trace-cache key: an unencodable scenario yields "" and the
// run simply replays uncached.
func snapshotKey(p Profile, cfg SSDConfig) string {
	b, err := json.Marshal(snapshotKeyData{
		Codec:           snapshot.CodecVersion,
		Profile:         p,
		Geometry:        cfg.Geometry,
		Order:           cfg.FTL.Order,
		GCFreeBlocks:    cfg.FTL.GCFreeBlocks,
		RefreshPeriod:   cfg.FTL.RefreshPeriod,
		MaxOpenBlockAge: cfg.FTL.MaxOpenBlockAge,
		FTLSeed:         cfg.FTL.Seed,
		Seed:            cfg.Seed,
		Faults:          cfg.Faults,
	})
	if err != nil {
		return ""
	}
	return string(b)
}

// RunWorkload generates the profile's trace and runs it on the device set
// built for the system description — one device, or a striped array of
// sys.Devices — returning the (merged) measurements. Two calls with
// identical arguments produce identical results.
func RunWorkload(p Profile, sys System) (Results, error) {
	return RunWorkloadContext(context.Background(), p, sys)
}

// RunWorkloadContext is RunWorkload with cooperative cancellation: when ctx
// is cancelled (or its deadline passes) the simulation stops within the
// engine's polling bounds — a few thousand events or a millisecond of
// simulated progress — and the context's error is returned together with
// the partial-progress stats accumulated so far. Cancellation never corrupts
// shared state: the trace cache and experiment memo are cancellation-safe,
// so an identical rerun after a cancel produces the same bytes as an
// uninterrupted run. Like every exported entry point it never panics; an
// invariant violation in the simulation surfaces as a *sim.InvariantError
// (see IsInvariantError).
func RunWorkloadContext(ctx context.Context, p Profile, sys System) (Results, error) {
	res, err := RunArrayWorkloadContext(ctx, p, sys)
	return res.Combined, err
}

// RunArrayWorkload runs the profile on a striped array of sys.Devices
// devices, each sized for its share of the workload footprint, and returns
// both the merged and the per-device measurements. sys.Devices of 0 or 1
// runs a one-member array: one device holding the whole footprint, whose
// Combined results are its own.
func RunArrayWorkload(p Profile, sys System) (ArrayResults, error) {
	return RunArrayWorkloadContext(context.Background(), p, sys)
}

// RunArrayWorkloadContext is RunArrayWorkload with cooperative cancellation
// and failure isolation: cancelling ctx stops every member device, and one
// member's failure cancels its siblings instead of letting them run on. The
// merged partial stats accompany any error.
func RunArrayWorkloadContext(ctx context.Context, p Profile, sys System) (ArrayResults, error) {
	res, arr, err := runArray(ctx, p, nil, sys)
	// Results share no memory with the devices, so a cleanly finished
	// array goes back to the arena for the sweep's next point. Failed or
	// cancelled runs drop their devices: their engines may hold undrained
	// events.
	if err == nil {
		arr.Release()
	}
	return res, err
}

// RunTrace replays a host trace — typically a parsed MSR Cambridge CSV (see
// workload.ParseMSR) — on the device set built for the system description,
// sized from the trace's own footprint, span and read mix.
func RunTrace(tr *Trace, sys System) (ArrayResults, error) {
	st := tr.Stats()
	p := Profile{
		Name:        "trace",
		ReadRatio:   st.ReadRatio,
		MeanReadKB:  st.MeanReadKB,
		FootprintMB: st.FootprintMB + 1,
		Requests:    st.Requests,
		Duration:    st.Span + time.Second,
	}
	if p.MeanReadKB == 0 {
		p.MeanReadKB = 8 // a write-only trace; any positive size builds the device
	}
	res, arr, err := runArray(context.Background(), p, tr, sys)
	if err == nil {
		arr.Release()
	}
	return res, err
}

// runArray is the one run path: it sizes sys's device set for the profile,
// checks the members out of the system's arena, and replays a trace on them.
// A nil tr replays the profile's cached synthetic trace after its aging
// preamble, restoring the aged state from DefaultSnapshots unless
// sys.NoSnapshot; a given trace is replayed as is and never snapshotted,
// since the profile does not identify its contents. The array is returned
// still checked out; the caller releases it after a clean run.
func runArray(ctx context.Context, p Profile, tr *Trace, sys System) (ArrayResults, *Array, error) {
	devices := max(sys.Devices, 1)
	np, err := p.Normalize()
	if err != nil {
		return ArrayResults{}, nil, err
	}
	if sys.Parity && devices < 3 {
		return ArrayResults{}, nil, &ConfigError{Field: "Parity", Reason: fmt.Sprintf("needs Devices >= 3, have %d", devices)}
	}
	// A lone device holds the whole footprint. An array member holds
	// ~1/devices of it — or, with parity, 1/(devices-1), since the rotated
	// parity units bring every member's share up to a data stripe's worth —
	// so size its geometry for that share plus a stripe of rounding slack.
	pdev := np
	if devices > 1 {
		shares := devices
		if sys.Parity {
			shares--
		}
		pdev.FootprintMB = np.FootprintMB/float64(shares) + 1
	}
	cfg, _, err := BuildConfig(pdev, sys)
	if err != nil {
		return ArrayResults{}, nil, err
	}
	var opts RunOptions
	if tr == nil {
		// The trace depends only on the normalized profile, never on the
		// system, so one cached generation backs every system evaluated on
		// it; the simulator replays it through a cursor without mutating it.
		if tr, opts.Preamble, err = workload.DefaultTraceCache.Traces(np); err != nil {
			return ArrayResults{}, nil, err
		}
		if !sys.NoSnapshot {
			// The base key covers the full profile and the member
			// template config; a multi-device array suffixes each
			// member's index and the stripe topology.
			if key := snapshotKey(np, cfg); key != "" {
				opts.Snapshots, opts.SnapshotKey = DefaultSnapshots, key
			}
		}
	}
	arr, err := array.New(array.Config{
		Devices: devices, StripeKB: sys.StripeKB, Parity: sys.Parity, Device: cfg, Pool: sys.arena(),
	})
	if err != nil {
		return ArrayResults{}, nil, err
	}
	res, err := arr.RunContext(ctx, tr, opts)
	return res, arr, err
}

// IsInvariantError reports whether err is (or wraps) a contained simulation
// invariant violation — a panic in the sim/FTL hot path that the run
// boundary recovered into a failed run. The full capture (engine time, event
// count, stack) is available via errors.As against *sim.InvariantError's
// re-export, InvariantError.
func IsInvariantError(err error) bool {
	var ie *InvariantError
	return errors.As(err, &ie)
}

// RunWithFollowup runs the profile under the system, then continues on the
// same (now aged, possibly IDA-reprogrammed) device with a second workload
// sharing the first one's address space, returning both phases'
// measurements. It reproduces the paper's Section III-C analysis: after a
// read-intensive phase that leaves IDA blocks behind, how much extra
// garbage collection does a write-intensive phase pay to reclaim them? The
// analysis is of one device, so sys.Devices > 1 and sys.Parity are rejected
// with a *ConfigError.
func RunWithFollowup(p Profile, sys System, followup Profile) (Results, Results, error) {
	if sys.Devices > 1 {
		return Results{}, Results{}, &ConfigError{Field: "Devices", Reason: fmt.Sprintf("follow-up runs use one device, not %d", sys.Devices)}
	}
	if sys.Parity {
		return Results{}, Results{}, &ConfigError{Field: "Parity", Reason: "follow-up runs use one device"}
	}
	first, arr, err := runArray(context.Background(), p, nil, sys)
	if err != nil {
		return Results{}, Results{}, err
	}
	np, err := p.Normalize()
	if err != nil {
		return Results{}, Results{}, err
	}
	// The follow-up shares the first phase's footprint and time base so
	// its writes overwrite (and its GC reclaims) the same space.
	followup.FootprintMB = np.FootprintMB
	if followup.Duration == 0 {
		followup.Duration = np.Duration
	}
	tr, err := followup.Generate()
	if err != nil {
		return Results{}, Results{}, err
	}
	second, err := arr.Device(0).RunMore(tr)
	if err != nil {
		return Results{}, Results{}, err
	}
	return first.Combined, second, nil
}
