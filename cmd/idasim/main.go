// Command idasim runs one workload on one simulated SSD configuration — or
// a striped multi-device array of them — and prints the measurements.
//
// Usage:
//
//	idasim -workload usr_1 [-requests N] [-ida] [-error 0.2]
//	       [-deltatr 50us] [-bits 3] [-late | -pe-cycles N -retention-days D]
//	       [-sched read-first|fifo|age-aware] [-devices N] [-stripekb K]
//	       [-parity] [-faults scenario.json]
//	       [-store-dir dir | -no-snapshot] [-no-pool]
//	       [-trace-out t.json] [-metrics-out m.csv] [-metrics-interval 100ms]
//	       [-trace-sample N] [-pprof cpu.out]
//	idasim -trace trace.csv [-ida] ...
//
// With -trace, the file is parsed in the MSR Cambridge CSV format
// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime).
//
// -faults loads a deterministic fault scenario (JSON; see internal/faults
// and examples/faults/) injecting wear-dependent program/erase failures,
// die/channel outages, and transient read faults; the run reports the
// recovery counters. -parity (with -devices >= 3) rotates a RAID-5-style
// parity stripe so reads failed by the scenario are rebuilt from peer
// devices in a degraded-mode pass. -pe-cycles/-retention-days derive the
// ECC read-retry regime from the RBER wear curve instead of -late's coarse
// phase label.
//
// -trace-out writes the sampled request lifecycles as Chrome trace-event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing;
// -metrics-out writes a fixed-interval time series of queue depths,
// utilization, and block populations as CSV. Both are deterministic:
// identical invocations produce byte-identical files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"

	"idaflash"
	"idaflash/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "usr_1", "paper workload profile name (see Table III)")
		tracePath = flag.String("trace", "", "replay an MSR-format CSV trace instead of a synthetic profile")
		requests  = flag.Int("requests", 40000, "host requests for the synthetic trace")
		ida       = flag.Bool("ida", false, "enable the IDA coding")
		codeName  = flag.String("coding", "", "cell coding scheme: ida (default), randio, or ilwc")
		errRate   = flag.Float64("error", 0.2, "voltage-adjustment error rate (with -ida)")
		deltaTR   = flag.Duration("deltatr", 0, "override delta-tR (e.g. 70us); 0 keeps the device default")
		bits      = flag.Int("bits", 3, "bits per cell: 2 (MLC), 3 (TLC), 4 (QLC)")
		late      = flag.Bool("late", false, "simulate the late SSD lifetime (LDPC read retries)")
		peCycles  = flag.Int("pe-cycles", 0, "derive the ECC retry regime from this many P/E cycles of wear (RBER curve; excludes -late)")
		retention = flag.Float64("retention-days", 0, "retention age in days for the RBER-derived ECC regime (with -pe-cycles)")
		sched     = flag.String("sched", "", "die/channel scheduler: read-first (default), fifo, or age-aware")
		maxWait   = flag.Duration("sched-maxwait", 0, "age-aware starvation bound; 0 uses the built-in default")
		devices   = flag.Int("devices", 1, "stripe the workload across this many independent devices")
		stripeKB  = flag.Int("stripekb", 0, "array stripe unit in KiB; 0 uses the default (64)")
		parity    = flag.Bool("parity", false, "rotate a RAID-5-style parity stripe across the array (needs -devices >= 3)")
		faultsIn  = flag.String("faults", "", "run under the fault scenario in this JSON file (see examples/faults/)")
		perDevice = flag.Bool("per-device", false, "with -devices > 1, print one summary per member device")
		asJSON    = flag.Bool("json", false, "emit the full Results struct as JSON")

		storeDir    = flag.String("store-dir", "", "persist aged device-state snapshots content-addressed in this directory, restoring the aging preamble in O(state) on later runs")
		storeSync   = flag.Bool("store-sync", false, "fsync every store blob write so the snapshot cache survives power loss")
		noSnapshot  = flag.Bool("no-snapshot", false, "replay the aging preamble from scratch instead of reusing device-state snapshots")
		noPool      = flag.Bool("no-pool", false, "build a fresh device per run instead of reusing pooled simulation state")
		traceOut    = flag.String("trace-out", "", "write sampled request spans as Chrome/Perfetto trace-event JSON to this file")
		metricsOut  = flag.String("metrics-out", "", "write the telemetry time series as CSV to this file")
		metricsIval = flag.Duration("metrics-interval", 100*time.Millisecond, "simulated-time sampling period for -metrics-out")
		traceSample = flag.Int("trace-sample", 1, "with -trace-out, record every Nth request's span")
		pprofOut    = flag.String("pprof", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	sys := idaflash.Baseline()
	if *ida {
		sys = idaflash.IDA(*errRate)
	}
	coding, err := idaflash.ParseCoding(*codeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys.Coding = coding
	if coding != idaflash.CodingIDA {
		sys.Name += "-" + coding
	}
	sys.DeltaTR = *deltaTR
	sys.BitsPerCell = *bits
	if *late {
		sys.Lifetime = idaflash.PhaseLate
	}
	sys.PECycles = *peCycles
	sys.RetentionDays = *retention
	policy, err := idaflash.ParseSchedulerPolicy(*sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys.Scheduler = policy
	sys.SchedulerMaxWait = *maxWait
	sys.Devices = *devices
	sys.StripeKB = *stripeKB
	sys.Parity = *parity
	sys.NoSnapshot = *noSnapshot
	sys.NoPool = *noPool
	if dir := *storeDir; dir != "" {
		if *noSnapshot {
			fmt.Fprintln(os.Stderr, "-store-dir and -no-snapshot are mutually exclusive")
			os.Exit(1)
		}
		if err := idaflash.SetStoreDirSync(dir, *storeSync); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The store's fail-soft diagnostics go to stderr, never into the
		// report on stdout.
		logf := log.New(os.Stderr, "idasim: ", 0).Printf
		idaflash.DefaultSnapshots.Logf = logf
		idaflash.StoreDisk().Logf = logf
	}
	if *faultsIn != "" {
		sc, err := idaflash.LoadFaultScenario(*faultsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sys.Faults = sc
	}
	if *traceOut != "" || *metricsOut != "" {
		tc := idaflash.TelemetryConfig{SampleEvery: *traceSample}
		if *metricsOut != "" {
			if *metricsIval <= 0 {
				fmt.Fprintf(os.Stderr, "-metrics-interval %v: must be positive\n", *metricsIval)
				os.Exit(1)
			}
			tc.MetricsInterval = *metricsIval
		}
		sys.Telemetry = &tc
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var ar idaflash.ArrayResults
	if *tracePath != "" {
		ar, err = runTrace(*tracePath, sys)
	} else {
		var p idaflash.Profile
		if p, err = idaflash.ProfileByName(*name, *requests); err == nil {
			ar, err = idaflash.RunArrayWorkload(p, sys)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := ar.Combined
	var per []idaflash.Results
	if *perDevice && ar.Devices > 1 {
		per = ar.PerDevice
	}
	var deg *idaflash.DegradedStats
	if ar.Parity {
		deg = &ar.Degraded
	}
	if res.Telemetry != nil {
		if *traceOut != "" {
			if err := res.Telemetry.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *metricsOut != "" {
			if err := res.Telemetry.WriteCSVFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			System    string
			Scheduler string
			Devices   int
			idaflash.Results
			Degraded  *idaflash.DegradedStats `json:",omitempty"`
			PerDevice []idaflash.Results      `json:",omitempty"`
		}{sys.Name, string(policy), ar.Devices, res, deg, per}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	report(sys, policy, ar, res)
	if deg != nil {
		fmt.Printf("degraded reads:       %d rebuilt, %d lost (%d rebuild requests)\n",
			deg.DegradedExtents, deg.LostExtents, deg.ReconRequests)
	}
	for d, r := range per {
		fmt.Printf("\n--- device %d ---\n", d)
		report(sys, policy, ar, r)
	}
}

// runTrace replays an MSR CSV file on a device (or array) sized for it.
func runTrace(path string, sys idaflash.System) (idaflash.ArrayResults, error) {
	f, err := os.Open(path)
	if err != nil {
		return idaflash.ArrayResults{}, err
	}
	defer f.Close()
	tr, err := workload.ParseMSR(path, f)
	if err != nil {
		return idaflash.ArrayResults{}, err
	}
	return idaflash.RunTrace(tr, sys)
}

func report(sys idaflash.System, policy idaflash.SchedulerPolicy, ar idaflash.ArrayResults, r idaflash.Results) {
	fmt.Printf("system:               %s\n", sys.Name)
	fmt.Printf("coding:               %s\n", r.Coding)
	fmt.Printf("scheduler:            %s\n", policy)
	if sys.Faults != nil {
		label := sys.Faults.Name
		if label == "" {
			label = "(unnamed)"
		}
		fmt.Printf("fault scenario:       %s\n", label)
	}
	if ar.Devices > 1 {
		fmt.Printf("array:                %d devices, %d KiB stripe\n", ar.Devices, ar.StripeKB)
	}
	fmt.Printf("trace:                %s\n", r.Trace)
	fmt.Printf("read requests:        %d\n", r.ReadRequests)
	fmt.Printf("write requests:       %d\n", r.WriteRequests)
	fmt.Printf("mean read response:   %v\n", r.MeanReadResponse.Round(time.Microsecond))
	fmt.Printf("p99 read response:    %v\n", r.P99ReadResponse.Round(time.Microsecond))
	fmt.Printf("mean write response:  %v\n", r.MeanWriteResponse.Round(time.Microsecond))
	fmt.Printf("throughput:           %.1f MB/s (reads %.1f MB/s)\n", r.ThroughputMBps, r.ReadMBps)
	fmt.Printf("makespan:             %v\n", r.Makespan.Round(time.Millisecond))
	fmt.Printf("refreshes:            %d (%d with IDA, %d WLs adjusted)\n",
		r.FTL.Refreshes, r.FTL.IDARefreshes, r.FTL.IDAAdjustedWLs)
	fmt.Printf("reads from IDA WLs:   %d of %d\n", r.FTL.ReadsFromIDA, r.FTL.HostReads)
	fmt.Printf("GC jobs:              %d (%d erases)\n", r.FTL.GCJobs, r.FTL.Erases)
	fmt.Printf("in-use blocks (peak): %d of %d (%d IDA at peak)\n", r.PeakInUse, r.Usage.Total, r.PeakIDA)
	fmt.Printf("program power proxy:  %.1f (%.2f per program, %.1f cells programmed)\n",
		r.PowerProxy, r.MeanProgramPower, r.FTL.ProgrammedCells)
	fmt.Printf("wear:                 mean %.2f erases/block (spread %d)\n", r.Wear.MeanErase, r.Wear.Spread)
	if sys.Faults != nil {
		fmt.Printf("fault retries:        %d read, %d write (%d timeouts, %d latency spikes)\n",
			r.Faults.ReadRetries, r.Faults.WriteRetries, r.Faults.ReadTimeouts, r.Faults.LatencySpikes)
		fmt.Printf("failed pages:         %d read, %d write (%d/%d host requests affected)\n",
			r.Faults.FailedReadPages, r.Faults.FailedWritePages,
			r.Faults.FailedReadRequests, r.Faults.FailedWriteRequests)
		fmt.Printf("grown bad blocks:     %d retired (%d program failures remapped, %d erase failures)\n",
			r.FTL.RetiredBlocks, r.FTL.ProgramFailures, r.FTL.EraseFailures)
	}
	fmt.Printf("simulated events:     %d\n", r.Events)
}
