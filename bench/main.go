// Command bench is the repository benchmark: it drives the simulator from
// outside, through the public facade in-process and through a real
// idaserver process over HTTP, and reports end-to-end and per-layer metrics
// for four workloads. See README.md for the workloads, the metrics and how
// their bounds were calibrated.
//
// Usage (from the repository root; bench/run.sh builds both binaries):
//
//	bench [-workload name,...] [-seed N] [-seconds S] [-trace 0|1]
//	      [-spans spans.json] [-json runs.jsonl] [-server idaserver] [-workdir dir]
//	bench compare [-benchmark BENCHMARK.json] base.jsonl head.jsonl
//	bench digests [-out bench/testdata/digests.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees.
// Every workload reports every one of them; what an "op" is depends on the
// workload (README.md, "Workloads").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"throughput_ops_s", "1/s"},
	{"sim_events_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per module. A metric of
// a layer a workload does not pass through (the farm under warm-read, say)
// reads 0.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms"},
	{"workload.traces_ms", "ms"},
	{"runpool.get_ms", "ms"},
	{"runpool.reuse_ratio", "ratio"},
	{"ssd.run_ms", "ms"},
	{"ssd.events_per_run", "count"},
	{"ssd.host_queue_wait_ms", "ms"},
	{"ssd.gc_busy_ms", "ms"},
	{"ssd.refresh_busy_ms", "ms"},
	{"ssd.die_util", "ratio"},
	{"ssd.read_gain_pct", "%"},
	{"ftl.age_ms", "ms"},
	{"ftl.write_ns_per_page", "ns"},
	{"ftl.gc_ms", "ms"},
	{"ftl.read_ns_per_page", "ns"},
	{"ftl.refresh_scan_us", "us"},
	{"ftl.refresh_jobs_per_scan", "ratio"},
	{"ftl.restore_ms", "ms"},
	{"ftl.gc_moves", "count"},
	{"ftl.refresh_moves", "count"},
	{"ftl.ida_adjusted_wls", "count"},
	{"ftl.write_amp", "ratio"},
	{"snapshot.state_mb", "MB"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"sim.engine_ns_per_event_d16", "ns"},
	{"sim.engine_ns_per_event_d256", "ns"},
	{"sim.resource_ns_per_op", "ns"},
	{"experiments.key_us", "us"},
	{"results.encode_ms", "ms"},
	{"results.hit_ratio", "ratio"},
	{"farm.point_ms_p50", "ms"},
	{"farm.point_ms_p99", "ms"},
	{"farm.worker_busy_ratio", "ratio"},
	{"server.elapsed_ms_p50", "ms"},
	{"server.transport_ms_p50", "ms"},
	{"server.shed_ratio", "ratio"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.heap_mb_end", "MB"},
	{"gen.conn_wait_ms_p99", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.ref_kernel_ms", "ms"},
}

// workloads maps each workload name to its implementation, in report order.
var workloads = []struct {
	name string
	make func(e *env) runner
}{
	{"warm-read", newWarmRead},
	{"cold-write", newColdWrite},
	{"fig8-batch", newFig8Batch},
	{"serve-mixed", newServeMixed},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit, so the smoke
// test can drive the whole command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "digests":
			return digestsCmd(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	spans := fs.String("spans", "", "write the traced pass's spans here as Chrome trace JSON")
	jsonOut := fs.String("json", "", "append one JSON line per workload run to this file (input to compare)")
	server := fs.String("server", ".bench_build/bin/idaserver", "idaserver binary for the HTTP workloads")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for server store directories")
	quick := fs.Bool("quick", false, "shrink every workload's inputs (smoke test only; skips the digest checks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	digests, err := loadDigests(*seed, *quick)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var recs []*recorder
	code := 0
	for _, i := range selected {
		w := workloads[i]
		e := &env{
			name: w.name, seed: *seed, seconds: *seconds, quick: *quick,
			server: *server, workdir: *workdir, out: stdout, log: stderr,
			digests: digests, chk: &checks{w: stderr}, sp: &speedometer{},
		}
		var rec *recorder
		if *trace == 1 {
			rec = newRecorder(w.name)
			recs = append(recs, rec)
		}
		fmt.Fprintf(stdout, "== %s (seed %d, %gs, trace %d)\n", w.name, *seed, *seconds, *trace)
		res, err := execute(e, w.make(e), rec)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := res.print(stdout, *trace == 1); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if *jsonOut != "" {
			if err := res.appendTo(*jsonOut, w.name, *seed, *seconds, *trace); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if !res.correct() {
			code = 1
		}
	}
	if len(recs) > 0 && *spans != "" {
		if err := writeChrome(*spans, recs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func selectWorkloads(list string) ([]int, error) {
	var out []int
	if list == "" {
		for i := range workloads {
			out = append(out, i)
		}
		return out, nil
	}
	for _, name := range strings.Split(list, ",") {
		found := false
		for i, w := range workloads {
			if w.name == name {
				out = append(out, i)
				found = true
			}
		}
		if !found {
			known := make([]string, len(workloads))
			for i, w := range workloads {
				known[i] = w.name
			}
			return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// result is one workload run's report.
type result struct {
	attempted, failed int
	e2e, layer        map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 }

// print writes the human-readable metric table and, as the last line, the
// JSON result object: the end-to-end metrics untraced, the per-layer ones
// traced.
func (r *result) print(w io.Writer, traced bool) error {
	table := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintf(w, "-- %s\n", title)
		for _, d := range defs {
			fmt.Fprintf(w, "%-30s %16.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	table("end-to-end", endToEnd, r.e2e)
	defs, vals := endToEnd, r.e2e
	if traced {
		table("per-layer", perLayer, r.layer)
		defs, vals = perLayer, r.layer
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", r.attempted, r.failed)
	b, err := json.Marshal(r.object(defs, vals))
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultObject struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) object(defs []metricDef, vals map[string]float64) resultObject {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return resultObject{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// runRecord is one line of a -json file: every metric the run measured,
// end-to-end and (when traced) per-layer, keyed by name.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	Correct  bool               `json:"correct"`
	Failed   int                `json:"failed"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func (r *result) appendTo(path, name string, seed int64, seconds float64, trace int) error {
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: r.correct(), Failed: r.failed, EndToEnd: r.e2e}
	if trace == 1 {
		rec.PerLayer = r.layer
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}
