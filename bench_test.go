// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, at a reduced request budget so the whole
// suite runs in minutes), plus microbenchmarks of the load-bearing
// primitives. Run with:
//
//	go test -bench=. -benchmem
package idaflash_test

import (
	"fmt"
	"io"
	"testing"

	"idaflash"
	"idaflash/internal/coding"
	"idaflash/internal/experiments"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/snapshot"
	"idaflash/internal/workload"
)

// benchRequests is the per-trace request budget for the experiment
// benchmarks: large enough for every mechanism (refresh cycles, IDA duty,
// queueing) to engage, small enough to keep the suite fast.
const benchRequests = 2500

// benchExperiment runs one full experiment per iteration on a fresh
// (memoizing) runner at the given per-trace request budget, and prints its
// table to io.Discard so rendering is included.
func benchExperiment(b *testing.B, requests int, run func(*experiments.Runner) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Requests: requests})
		t, err := run(r)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the workload characterization (Table III).
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, benchRequests, experiments.TableIII) }

// BenchmarkFigure4 regenerates the read-distribution breakdown (Figure 4).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, benchRequests, experiments.Figure4) }

// BenchmarkFigure8 regenerates the headline error-rate sweep (Figure 8).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, benchRequests, experiments.Figure8) }

// BenchmarkFigure8DefaultRequests regenerates Figure 8 at
// experiments.DefaultRequests, the budget EXPERIMENTS.md's tables use. The
// trace cache, snapshot store and device arena are process-wide, so only an
// iteration that finds them empty pays trace generation and aging.
func BenchmarkFigure8DefaultRequests(b *testing.B) {
	benchExperiment(b, experiments.DefaultRequests, experiments.Figure8)
}

// BenchmarkTableIV regenerates the refresh overhead audit (Table IV).
func BenchmarkTableIV(b *testing.B) { benchExperiment(b, benchRequests, experiments.TableIV) }

// BenchmarkFigure9 regenerates the delta-tR sensitivity sweep (Figure 9).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, benchRequests, experiments.Figure9) }

// BenchmarkFigure10 regenerates the throughput comparison (Figure 10).
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, benchRequests, experiments.Figure10) }

// BenchmarkFigure11 regenerates the lifetime/read-retry study (Figure 11).
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, benchRequests, experiments.Figure11) }

// BenchmarkTableV regenerates the MLC device study (Table V).
func BenchmarkTableV(b *testing.B) { benchExperiment(b, benchRequests, experiments.TableV) }

// BenchmarkFigure6 regenerates the QLC coding table and device extension
// (Figure 6).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, benchRequests, experiments.Figure6) }

// BenchmarkBlockUsage regenerates the Section III-C block accounting.
func BenchmarkBlockUsage(b *testing.B) { benchExperiment(b, benchRequests, experiments.BlockUsage) }

// BenchmarkSingleRun measures one baseline run, warm and pooled: after
// iteration 1 it is a snapshot restore into an arena device plus the timed
// replay. Prefill and aging run only in iteration 1, so the per-op figure
// does not time them; trace generation is cached across iterations by
// workload.DefaultTraceCache, as it is across the runs of a sweep.
func BenchmarkSingleRun(b *testing.B) {
	p, err := idaflash.ProfileByName("hm_1", benchRequests)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := idaflash.RunWorkload(p, idaflash.Baseline()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunIDA measures one IDA-E20 run, warm and pooled: after
// iteration 1 it is a snapshot restore into an arena device plus the timed
// replay, as for BenchmarkSingleRun.
func BenchmarkSingleRunIDA(b *testing.B) {
	p, err := idaflash.ProfileByName("hm_1", benchRequests)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := idaflash.RunWorkload(p, idaflash.IDA(0.2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunIDACold measures one IDA-E20 run cold: a fresh device
// (NoPool) generates and replays the full aging preamble (NoSnapshot)
// before the timed replay. Only trace generation stays out of the timing:
// the trace cache is primed before the timer starts, as a sweep's first run
// of a profile would find it.
func BenchmarkSingleRunIDACold(b *testing.B) {
	p, err := idaflash.ProfileByName("hm_1", benchRequests)
	if err != nil {
		b.Fatal(err)
	}
	np, err := p.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.DefaultTraceCache.Trace(np); err != nil {
		b.Fatal(err)
	}
	sys := idaflash.IDA(0.2)
	sys.NoSnapshot, sys.NoPool = true, true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idaflash.RunWorkload(p, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunModes times one IDA-E20 run per profile in the four
// combinations of the two acceleration layers: "pooled" is the default
// (snapshot restore into an arena device), "warm" restores into a fresh
// device (NoPool), "no-snapshot" replays the aging preamble on an arena
// device (NoSnapshot), and "cold" does neither. Each profile runs at the
// benchmark budget and at experiments.DefaultRequests, the budget of the
// paper's tables (sub-benchmarks "hm_1@2500/pooled", "hm_1@40000/pooled").
// Each mode runs once before the timer, so the trace cache, the snapshot
// store and the arena are as a sweep's later runs find them.
// EXPERIMENTS.md's "Snapshot restore" and "Run arenas" tables come from it.
func BenchmarkRunModes(b *testing.B) {
	modes := []struct {
		name               string
		noSnapshot, noPool bool
	}{{"pooled", false, false}, {"warm", false, true}, {"no-snapshot", true, false}, {"cold", true, true}}
	for _, requests := range []int{benchRequests, experiments.DefaultRequests} {
		for _, profile := range []string{"hm_1", "src1_0", "usr_1"} {
			p, err := idaflash.ProfileByName(profile, requests)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range modes {
				sys := idaflash.IDA(0.2)
				sys.NoSnapshot, sys.NoPool = m.noSnapshot, m.noPool
				b.Run(fmt.Sprintf("%s@%d/%s", profile, requests, m.name), func(b *testing.B) {
					if _, err := idaflash.RunWorkload(p, sys); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := idaflash.RunWorkload(p, sys); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkNewDevice measures cold device construction: one fresh ssd.New
// for the hm_1 IDA-E20 config, the path every arena miss takes. It sizes
// the dense L2P, the plane tables, the engine and the die and channel
// resources, so its allocs/op is the cost pooling saves per reused device.
func BenchmarkNewDevice(b *testing.B) {
	p, err := idaflash.ProfileByName("hm_1", benchRequests)
	if err != nil {
		b.Fatal(err)
	}
	cfg, _, err := idaflash.BuildConfig(p, idaflash.IDA(0.2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := idaflash.NewSSD(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodingMerge measures the IDA merge lookup for every TLC validity
// mask. Schemes precompute all 2^bits merges at construction, so the
// hot-path cost is a table index — CI gates this at zero allocations.
func BenchmarkCodingMerge(b *testing.B) {
	tlc := coding.NewGray(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for mask := coding.ValidMask(0); mask < 8; mask++ {
			tlc.Merge(mask)
		}
	}
}

// BenchmarkCodingPlan measures the Table I wordline-plan lookup, precomputed
// like the merges; CI gates this at zero allocations too.
func BenchmarkCodingPlan(b *testing.B) {
	tlc := coding.NewGray(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for mask := coding.ValidMask(0); mask < 8; mask++ {
			tlc.PlanWordline(mask)
		}
	}
}

// agedFTL restores the aged IDA-E20 state of hm_1 at 10,000 requests into a
// fresh device's FTL, and returns the FTL, the state and the LPNs the
// measured part of the trace reads, one per page read.
func agedFTL(b *testing.B) (*ftl.FTL, *ftl.State, []ftl.LPN) {
	const requests = 10000
	st, _ := agedState(b, "hm_1", requests)
	p, err := idaflash.ProfileByName("hm_1", requests)
	if err != nil {
		b.Fatal(err)
	}
	cfg, np, err := idaflash.BuildConfig(p, idaflash.IDA(0.2))
	if err != nil {
		b.Fatal(err)
	}
	dev, err := idaflash.NewSSD(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f := dev.FTL()
	if err := f.Restore(st.FTL); err != nil {
		b.Fatal(err)
	}
	tr, err := workload.DefaultTraceCache.Trace(np)
	if err != nil {
		b.Fatal(err)
	}
	// The first 30% of the trace is the run's zero-time warmup.
	pageSize := int64(cfg.Geometry.PageSizeBytes)
	var lpns []ftl.LPN
	for _, r := range tr.Requests[len(tr.Requests)*3/10:] {
		if r.Read {
			for lpn := r.Offset / pageSize; lpn <= (r.End()-1)/pageSize; lpn++ {
				lpns = append(lpns, ftl.LPN(lpn))
			}
		}
	}
	return f, st.FTL, lpns
}

// BenchmarkFTLRead measures the FTL's host-read path: one op resolves every
// page read of hm_1's measured trace on the aged device (address decode,
// sensing lookup, Figure 4 classification). It must not allocate; CI gates
// it at 1 alloc/op.
func BenchmarkFTLRead(b *testing.B) {
	f, _, lpns := agedFTL(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lpn := range lpns {
			f.Read(lpn)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lpns)), "ns/page")
}

// BenchmarkFTLRestore measures restoring hm_1's aged state into a reused
// FTL, the per-run cost of a pooled warm run's FTL. It must not allocate;
// CI gates it at 1 alloc/op.
func BenchmarkFTLRestore(b *testing.B) {
	f, st, _ := agedFTL(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Restore(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode measures encoding hm_1's aged IDA-E20 state at
// 10,000 requests, the cost of every snapshot a cold run publishes to the
// blob tier. Encode sizes the file exactly and writes it in place, so it
// makes one allocation, the file; CI gates it at 1 alloc/op.
func BenchmarkSnapshotEncode(b *testing.B) {
	st, size := agedState(b, "hm_1", 10000)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Encode(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine measures the raw discrete-event engine throughput.
func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
}

// BenchmarkTraceGeneration measures synthetic trace generation.
func BenchmarkTraceGeneration(b *testing.B) {
	p := workload.Profile{Name: "bench", ReadRatio: 0.9, MeanReadKB: 32, ReadDataRatio: 0.9, Requests: 10000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarmThroughput measures sustained runs/sec with GOMAXPROCS
// parallel workers replaying warm-store simulations, the farm's steady
// state: every worker restores its aged device from the shared snapshot
// store and checks its simulation state out of the shared device arena.
// This is the end-to-end number the run-arena layer exists to move.
func BenchmarkFarmThroughput(b *testing.B) {
	p, err := idaflash.ProfileByName("hm_1", benchRequests)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the snapshot store and trace cache before the timer.
	if _, err := idaflash.RunWorkload(p, idaflash.IDA(0.2)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := idaflash.RunWorkload(p, idaflash.IDA(0.2)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkFigure8Snapshotted regenerates the headline sweep with every
// profile's snapshot already captured, the steady state of an experiment
// sweep iterated during development: all system variants restore their aged
// devices instead of re-aging them.
func BenchmarkFigure8Snapshotted(b *testing.B) {
	warm := experiments.NewRunner(experiments.Options{Requests: benchRequests})
	if _, err := experiments.Figure8(warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchExperiment(b, benchRequests, experiments.Figure8)
}

// BenchmarkAblations regenerates the design-choice ablation table.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, benchRequests, experiments.Ablations) }

// BenchmarkWriteInterference regenerates the write-intensive follow-up
// analysis (Section III-C).
func BenchmarkWriteInterference(b *testing.B) {
	benchExperiment(b, benchRequests, experiments.WriteInterference)
}

// BenchmarkVendor232 regenerates the vendor 2-3-2 coding comparison.
func BenchmarkVendor232(b *testing.B) { benchExperiment(b, benchRequests, experiments.Vendor232) }
