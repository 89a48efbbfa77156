package idaflash_test

import (
	"errors"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/ecc"
)

func smallProfile(t *testing.T, name string) idaflash.Profile {
	t.Helper()
	p, err := idaflash.ProfileByName(name, 4000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSystemConstructors(t *testing.T) {
	b := idaflash.Baseline()
	if b.Name != "Baseline" || b.IDA {
		t.Errorf("Baseline() = %+v", b)
	}
	i := idaflash.IDA(0.2)
	if i.Name != "IDA-E20" || !i.IDA || i.ErrorRate != 0.2 {
		t.Errorf("IDA(0.2) = %+v", i)
	}
	if idaflash.IDA(0).Name != "IDA-E0" {
		t.Errorf("IDA(0) name = %s", idaflash.IDA(0).Name)
	}
	if idaflash.IDA(0.8).Name != "IDA-E80" {
		t.Errorf("IDA(0.8) name = %s", idaflash.IDA(0.8).Name)
	}
}

func TestBuildConfig(t *testing.T) {
	p := smallProfile(t, "proj_3")
	cfg, np, err := idaflash.BuildConfig(p, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if np.FootprintMB <= 0 {
		t.Error("normalized profile lacks footprint")
	}
	if !cfg.FTL.IDAEnabled || cfg.FTL.ErrorRate != 0.2 {
		t.Errorf("FTL options = %+v", cfg.FTL)
	}
	// The FTL force-closes a block left open half the refresh period, so
	// the period must leave that bound positive.
	if cfg.FTL.RefreshPeriod/2 <= 0 {
		t.Errorf("refresh period %v leaves no open-block bound", cfg.FTL.RefreshPeriod)
	}
	if cfg.Geometry.BitsPerCell != 3 {
		t.Errorf("bits = %d", cfg.Geometry.BitsPerCell)
	}
	// Device must comfortably hold the footprint.
	if cfg.Geometry.CapacityBytes() < int64(np.FootprintMB*1.5*(1<<20)) {
		t.Error("device undersized")
	}
	// MLC timing kicks in for 2 bits/cell.
	mlc := idaflash.Baseline()
	mlc.BitsPerCell = 2
	cfg2, _, err := idaflash.BuildConfig(p, mlc)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Timing.ReadBase != 65*time.Microsecond {
		t.Errorf("MLC ReadBase = %v", cfg2.Timing.ReadBase)
	}
	// delta-tR override.
	d70 := idaflash.Baseline()
	d70.DeltaTR = 70 * time.Microsecond
	cfg3, _, err := idaflash.BuildConfig(p, d70)
	if err != nil {
		t.Fatal(err)
	}
	if cfg3.Timing.ReadDelta != 70*time.Microsecond {
		t.Errorf("ReadDelta = %v", cfg3.Timing.ReadDelta)
	}
	// Unsupported densities are rejected.
	bad := idaflash.Baseline()
	bad.BitsPerCell = 5
	if _, _, err := idaflash.BuildConfig(p, bad); err == nil {
		t.Error("5 bits/cell accepted")
	}
	// So are array shapes no run entry point can build.
	for _, tc := range []struct {
		field string
		sys   func(*idaflash.System)
	}{
		{"Devices", func(s *idaflash.System) { s.Devices = -4 }},
		{"StripeKB", func(s *idaflash.System) { s.Devices, s.StripeKB = 2, -1 }},
		{"Parity", func(s *idaflash.System) { s.Parity = true }},
		{"Parity", func(s *idaflash.System) { s.Devices, s.Parity = 2, true }},
	} {
		sys := idaflash.IDA(0.2)
		tc.sys(&sys)
		_, _, err := idaflash.BuildConfig(p, sys)
		var ce *idaflash.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Devices %d StripeKB %d Parity %v: err = %v, want a *ConfigError on %s",
				sys.Devices, sys.StripeKB, sys.Parity, err, tc.field)
		}
	}
	parity := idaflash.IDA(0.2)
	parity.Devices, parity.Parity = 3, true
	if _, _, err := idaflash.BuildConfig(p, parity); err != nil {
		t.Errorf("parity over 3 devices rejected: %v", err)
	}
	// Every call shares one coding scheme per (name, bits) instead of
	// rebuilding its merge and plan tables (105 allocations each time), so
	// building a config allocates nothing.
	for _, sys := range []idaflash.System{idaflash.Baseline(), idaflash.IDA(0.2), mlc, d70} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := idaflash.BuildConfig(p, sys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("BuildConfig(%s, %d bits/cell) makes %.0f allocations, budget 1", sys.Name, sys.BitsPerCell, allocs)
		}
	}
}

// TestRBERDerivedECC covers the wear-derived ECC regime: PECycles and
// RetentionDays are validated as typed config errors, exclude
// Lifetime = PhaseLate, and when set replace the phase's retry parameters
// with the RBER curve's at that wear point.
func TestRBERDerivedECC(t *testing.T) {
	p := smallProfile(t, "proj_3")
	for _, tc := range []struct {
		field string
		sys   func(*idaflash.System)
	}{
		{"PECycles", func(s *idaflash.System) { s.PECycles = -1 }},
		{"RetentionDays", func(s *idaflash.System) { s.RetentionDays = -0.5 }},
		{"PECycles", func(s *idaflash.System) { s.PECycles, s.Lifetime = 1000, idaflash.PhaseLate }},
	} {
		sys := idaflash.IDA(0.2)
		tc.sys(&sys)
		_, _, err := idaflash.BuildConfig(p, sys)
		var ce *idaflash.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("PECycles %d RetentionDays %v Lifetime %v: err = %v, want a *ConfigError on %s",
				sys.PECycles, sys.RetentionDays, sys.Lifetime, err, tc.field)
		}
	}

	early, _, err := idaflash.BuildConfig(p, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	worn := idaflash.IDA(0.2)
	worn.PECycles, worn.RetentionDays = 3000, 30
	cfg, _, err := idaflash.BuildConfig(p, worn)
	if err != nil {
		t.Fatal(err)
	}
	want := ecc.DefaultRBERCurve().ParamsAt(3000, 30, 0, cfg.Timing.ECCDecode)
	if cfg.ECC != want {
		t.Errorf("worn ECC = %+v, want the RBER curve's %+v", cfg.ECC, want)
	}
	if cfg.ECC == early.ECC {
		t.Errorf("worn ECC %+v equals the early-phase params", cfg.ECC)
	}
}

func TestRunWorkloadEndToEnd(t *testing.T) {
	p := smallProfile(t, "hm_1")
	base, err := idaflash.RunWorkload(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	ida, err := idaflash.RunWorkload(p, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if base.ReadRequests == 0 || ida.ReadRequests == 0 {
		t.Fatal("no reads measured")
	}
	if ida.MeanReadResponse >= base.MeanReadResponse {
		t.Errorf("IDA %v not faster than baseline %v", ida.MeanReadResponse, base.MeanReadResponse)
	}
	if ida.FTL.IDARefreshes == 0 || ida.FTL.ReadsFromIDA == 0 {
		t.Error("IDA machinery idle")
	}
	if base.FTL.IDARefreshes != 0 {
		t.Error("baseline ran IDA refreshes")
	}
}

func TestRunWorkloadDeterminism(t *testing.T) {
	p := smallProfile(t, "proj_3")
	a, err := idaflash.RunWorkload(p, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := idaflash.RunWorkload(p, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanReadResponse != b.MeanReadResponse || a.FTL != b.FTL || a.Events != b.Events {
		t.Error("identical RunWorkload calls diverged")
	}
}

func TestCodingFacade(t *testing.T) {
	tlc := idaflash.NewGrayCoding(3)
	if tlc.Senses(idaflash.MSB) != 4 {
		t.Errorf("MSB senses = %d", tlc.Senses(idaflash.MSB))
	}
	m := tlc.Merge(idaflash.MaskAll(3).Without(idaflash.LSB))
	if m.Senses(idaflash.CSB) != 1 || m.Senses(idaflash.MSB) != 2 {
		t.Error("merge through facade wrong")
	}
	v := idaflash.Vendor232TLC()
	if v.Senses(idaflash.CSB) != 3 {
		t.Errorf("2-3-2 CSB senses = %d", v.Senses(idaflash.CSB))
	}
	if idaflash.PaperGeometry().TotalBlocks() != 350208 {
		t.Error("paper geometry wrong")
	}
	if idaflash.PaperTiming().ReadLatency(4) != 150*time.Microsecond {
		t.Error("paper timing wrong")
	}
	if idaflash.PaperMLCTiming().ReadLatency(2) != 115*time.Microsecond {
		t.Error("MLC timing wrong")
	}
	if len(idaflash.PaperProfiles(0)) != 11 || len(idaflash.ExtraProfiles(0)) != 9 {
		t.Error("profile registries wrong")
	}
}

func TestRunWithFollowup(t *testing.T) {
	p := smallProfile(t, "proj_3")
	follow := idaflash.Profile{
		Name:          "flush",
		ReadRatio:     0.3,
		MeanReadKB:    16,
		ReadDataRatio: 0.3,
		Requests:      1500,
		Seed:          9,
	}
	sys := idaflash.IDA(0.2)
	sys.TightSpace = true
	first, second, err := idaflash.RunWithFollowup(p, sys, follow)
	if err != nil {
		t.Fatal(err)
	}
	if first.ReadRequests == 0 || second.WriteRequests == 0 {
		t.Fatalf("phases empty: %d reads / %d writes", first.ReadRequests, second.WriteRequests)
	}
	// Phase 2 counters cover phase 2 only.
	if second.FTL.HostWrites == 0 || second.FTL.HostWrites >= first.FTL.HostWrites+second.FTL.HostWrites+1 {
		t.Error("phase accounting wrong")
	}
	// The write-heavy follow-up erases blocks.
	if second.FTL.Erases == 0 {
		t.Error("follow-up phase never erased")
	}
	if second.Makespan <= 0 {
		t.Errorf("phase-2 makespan = %v", second.Makespan)
	}
}

func TestAblationKnobs(t *testing.T) {
	p := smallProfile(t, "hm_1")
	only := idaflash.IDA(0.2)
	only.Name = "IDA-onlyinv"
	only.OnlyInvalid = true
	res, err := idaflash.RunWorkload(p, only)
	if err != nil {
		t.Fatal(err)
	}
	if res.FTL.IDARefreshes == 0 {
		t.Error("only-invalid mode never adjusted anything")
	}
	fast := idaflash.IDA(0.2)
	fast.Name = "IDA-fast"
	fast.FastAdjust = true
	cfg, _, err := idaflash.BuildConfig(p, fast)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Timing.VoltAdjust != cfg.Timing.Program/2 {
		t.Errorf("fast adjust = %v, want %v", cfg.Timing.VoltAdjust, cfg.Timing.Program/2)
	}
	tight := idaflash.Baseline()
	tight.TightSpace = true
	cfgT, np, err := idaflash.BuildConfig(p, tight)
	if err != nil {
		t.Fatal(err)
	}
	cfgL, _, err := idaflash.BuildConfig(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if cfgT.Geometry.CapacityBytes() > cfgL.Geometry.CapacityBytes() {
		t.Error("tight space not smaller than default")
	}
	if cfgT.Geometry.CapacityBytes() < int64(np.FootprintMB*(1<<20)) {
		t.Error("tight space below footprint")
	}
}

func TestResultsUtilizationPopulated(t *testing.T) {
	p := smallProfile(t, "proj_3")
	res, err := idaflash.RunWorkload(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanChannelUtilization <= 0 || res.MeanChannelUtilization > 1 {
		t.Errorf("channel utilization = %v", res.MeanChannelUtilization)
	}
	if res.MeanDieUtilization < 0 || res.MeanDieUtilization > 1 {
		t.Errorf("die utilization = %v", res.MeanDieUtilization)
	}
	if res.BusySpan <= 0 {
		t.Errorf("busy span = %v", res.BusySpan)
	}
}

// TestCodingSelection exercises the facade's coding-scheme plumbing: name
// validation, geometry cross-checks, the typed *ConfigError contract, and
// the selected code reaching the FTL and the run's Results.
func TestCodingSelection(t *testing.T) {
	p := smallProfile(t, "proj_3")

	names := idaflash.CodingNames()
	if len(names) != 3 {
		t.Fatalf("CodingNames() = %v, want 3 schemes", names)
	}
	if got, err := idaflash.ParseCoding(""); err != nil || got != idaflash.CodingIDA {
		t.Fatalf("ParseCoding(\"\") = %q, %v", got, err)
	}
	if _, err := idaflash.ParseCoding("gray"); !idaflash.IsConfigError(err) {
		t.Fatalf("ParseCoding(gray) err = %v, want a *ConfigError", err)
	}

	sys := idaflash.IDA(0.2)
	sys.Coding = idaflash.CodingRandIO
	cfg, _, err := idaflash.BuildConfig(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	// The balanced TLC map reads the MSB in 2 and the LSB in 3 sensings.
	if cfg.FTL.Code == nil || cfg.FTL.Code.Name() != idaflash.CodingRandIO || cfg.FTL.Code.MaxSenses() != 3 {
		t.Errorf("randio code not wired into the FTL: %+v", cfg.FTL.Code)
	}

	// Geometry cross-check: randio is capped at 4 bits/cell, so it works
	// on QLC but an unknown name never does.
	qlc := sys
	qlc.BitsPerCell = 4
	if _, _, err := idaflash.BuildConfig(p, qlc); err != nil {
		t.Errorf("randio on QLC rejected: %v", err)
	}
	bad := sys
	bad.Coding = "bogus"
	if _, _, err := idaflash.BuildConfig(p, bad); !idaflash.IsConfigError(err) {
		t.Errorf("unknown coding err = %v, want a *ConfigError", err)
	}
	// Vendor232 pins the state map, so it conflicts with non-ida codings.
	conflict := sys
	conflict.Vendor232 = true
	if _, _, err := idaflash.BuildConfig(p, conflict); !idaflash.IsConfigError(err) {
		t.Errorf("Vendor232+randio err = %v, want a *ConfigError", err)
	}
	// Plain simulation failures are not config errors.
	if idaflash.IsConfigError(errFake) {
		t.Error("IsConfigError matched a generic error")
	}

	res, err := idaflash.RunWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coding != idaflash.CodingRandIO {
		t.Errorf("Results.Coding = %q, want %q", res.Coding, idaflash.CodingRandIO)
	}
	if res.PowerProxy <= 0 || res.MeanProgramPower <= 0 {
		t.Errorf("power proxies not accumulated: total %v, mean %v", res.PowerProxy, res.MeanProgramPower)
	}

	// ilwc shares the Gray map but must report a cheaper per-program
	// power on the identical workload.
	ida := idaflash.IDA(0.2)
	idaRes, err := idaflash.RunWorkload(p, ida)
	if err != nil {
		t.Fatal(err)
	}
	ilwc := idaflash.IDA(0.2)
	ilwc.Coding = idaflash.CodingILWC
	ilwcRes, err := idaflash.RunWorkload(p, ilwc)
	if err != nil {
		t.Fatal(err)
	}
	if ilwcRes.MeanReadResponse != idaRes.MeanReadResponse {
		t.Errorf("ilwc read response %v differs from ida %v (same state map)", ilwcRes.MeanReadResponse, idaRes.MeanReadResponse)
	}
	if ilwcRes.MeanProgramPower >= idaRes.MeanProgramPower {
		t.Errorf("ilwc power %v not below ida %v", ilwcRes.MeanProgramPower, idaRes.MeanProgramPower)
	}
}

var errFake = errors.New("fake simulation failure")

func TestVendor232System(t *testing.T) {
	p := smallProfile(t, "proj_3")
	sys := idaflash.IDA(0.2)
	sys.Vendor232 = true
	cfg, _, err := idaflash.BuildConfig(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FTL.Code == nil || cfg.FTL.Code.Senses(idaflash.CSB) != 3 {
		t.Error("vendor scheme not wired into the FTL")
	}
	// Vendor coding requires TLC.
	bad := sys
	bad.BitsPerCell = 2
	if _, _, err := idaflash.BuildConfig(p, bad); err == nil {
		t.Error("vendor 2-3-2 on MLC accepted")
	}
	res, err := idaflash.RunWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.FTL.IDARefreshes == 0 || res.FTL.ReadsFromIDA == 0 {
		t.Error("IDA idle under the vendor coding")
	}
}

func TestSchedulerKnobPlumbing(t *testing.T) {
	p := smallProfile(t, "proj_3")
	sys := idaflash.Baseline()
	sys.Scheduler = idaflash.SchedAgeAware
	sys.SchedulerMaxWait = 5 * time.Millisecond
	cfg, _, err := idaflash.BuildConfig(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != idaflash.SchedAgeAware || cfg.SchedulerMaxWait != 5*time.Millisecond {
		t.Errorf("scheduler knobs not plumbed: %v / %v", cfg.Scheduler, cfg.SchedulerMaxWait)
	}
	bad := sys
	bad.Scheduler = "bogus"
	badCfg, _, err := idaflash.BuildConfig(p, bad)
	if err == nil {
		if _, err := idaflash.NewSSD(badCfg); err == nil {
			t.Error("bogus scheduler survived BuildConfig and NewSSD")
		}
	}
	if _, err := idaflash.ParseSchedulerPolicy("fifo"); err != nil {
		t.Error(err)
	}
	if got := len(idaflash.SchedulerPolicies()); got != 3 {
		t.Errorf("SchedulerPolicies() has %d entries", got)
	}
	// Every policy runs end to end through the facade.
	for _, pol := range idaflash.SchedulerPolicies() {
		s := idaflash.Baseline()
		s.Scheduler = pol
		res, err := idaflash.RunWorkload(p, s)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.ReadRequests == 0 {
			t.Errorf("%s: no reads served", pol)
		}
	}
}

func TestRunWorkloadTelemetry(t *testing.T) {
	p := smallProfile(t, "usr_1")
	sys := idaflash.IDA(0.2)
	sys.Telemetry = &idaflash.TelemetryConfig{MetricsInterval: 100 * time.Millisecond}
	res, err := idaflash.RunWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("System.Telemetry set but Results.Telemetry is nil")
	}
	if len(res.Telemetry.Spans) == 0 || len(res.Telemetry.Samples) == 0 {
		t.Fatalf("empty telemetry export: %d spans, %d samples",
			len(res.Telemetry.Spans), len(res.Telemetry.Samples))
	}
	// The array path tags and merges per-device streams.
	sys.Devices = 2
	ar, err := idaflash.RunArrayWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	e := ar.Combined.Telemetry
	if e == nil || e.Device != -1 {
		t.Fatalf("array telemetry not merged: %+v", e)
	}
	// The shared System config must not have been mutated by device
	// tagging (each device gets its own copy).
	if sys.Telemetry.Device != 0 {
		t.Errorf("array run mutated the caller's TelemetryConfig: Device = %d", sys.Telemetry.Device)
	}
}

func TestRunArrayWorkload(t *testing.T) {
	p := smallProfile(t, "usr_1")
	sys := idaflash.IDA(0.2)
	sys.Devices = 4
	single, err := idaflash.RunWorkload(p, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := idaflash.RunArrayWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.PerDevice) != 4 || ar.Devices != 4 {
		t.Fatalf("array shape: %d devices, %d per-device results", ar.Devices, len(ar.PerDevice))
	}
	if ar.Combined.ThroughputMBps <= single.ThroughputMBps {
		t.Errorf("4-device throughput %.1f MB/s not above single device %.1f MB/s",
			ar.Combined.ThroughputMBps, single.ThroughputMBps)
	}
	// RunWorkload routes through the array when Devices > 1 and returns
	// the merged view.
	merged, err := idaflash.RunWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Scalars() != ar.Combined.Scalars() {
		t.Error("RunWorkload(Devices=4) diverged from RunArrayWorkload().Combined")
	}
	// Array runs are reproducible end to end.
	again, err := idaflash.RunArrayWorkload(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if again.Combined.Scalars() != ar.Combined.Scalars() {
		t.Error("array workload not deterministic")
	}
}
