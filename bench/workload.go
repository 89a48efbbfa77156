package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"time"
)

// env is what one workload run needs from the command line, plus the run's
// speedometer and check counters.
type env struct {
	name    string
	seed    int64
	seconds float64
	quick   bool
	server  string // idaserver binary
	workdir string // parent of the server store directories
	out     io.Writer
	log     io.Writer
	// digests maps point IDs to the SHA-256 of their canonical Results
	// JSON; nil unless the run uses the seed and scale they were taken at.
	digests map[string]string
	chk     *checks
	sp      *speedometer
}

// runner is one benchmark workload. execute calls setup once, measure once
// untraced (and, for a traced run, once more with a recorder), probe only
// when traced, and verify last; close always.
type runner interface {
	// setup prepares the timed phase several times over and returns each
	// repetition's scaled duration in seconds; the last repetition's
	// state is measured.
	setup(e *env) ([]float64, error)
	// measure runs the workload's operations for d. Pass 0 is the
	// untraced pass; pass 1 is the traced one and gets a recorder.
	measure(e *env, pass int, d time.Duration, rec *recorder) (*phase, error)
	// probe times isolated calls into each layer on the workload's own
	// inputs and returns the per-layer metrics it measured.
	probe(e *env, rec *recorder) (map[string]float64, error)
	// verify recomputes a seed-chosen sample of points on the reference
	// path (no snapshots, no device pool) and compares their outputs.
	verify(e *env) error
	close()
}

// phase is what one measure pass observed. Host times are scaled by the
// speedometer (speed.go).
type phase struct {
	latMs      []float64 // latency of each operation whose latency counts
	count      int       // operations the per-operation costs divide by
	busy       float64   // seconds the counted operations took, closed loop
	cpuMs      float64   // CPU time of the simulating process
	allocBytes float64   // bytes the simulating process allocated
	events     float64   // simulated events of the simulations run
	simSec     float64   // host seconds those simulations took
	rssMB      float64
	// rate overrides the throughput: an open loop reports the highest
	// arrival rate that met its latency objective.
	rate float64
	// setups are set-up durations observed while measuring (a server
	// started per iteration); they join the ones setup returned.
	setups []float64
	layer  map[string]float64
}

// checks counts operations and the ones that failed: a run error, a
// non-200 answer, or an output that differs from its reference.
type checks struct {
	w                 io.Writer
	attempted, failed int
}

// op records one operation; a non-empty why marks it failed.
func (c *checks) op(why string) {
	c.attempted++
	if why != "" {
		c.failed++
		fmt.Fprintf(c.w, "bench: check failed: %s\n", why)
	}
}

const mb = 1 << 20

// execute runs one workload and assembles its report.
func execute(e *env, w runner, rec *recorder) (*result, error) {
	defer w.close()
	setups, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	d := time.Duration(e.seconds * float64(time.Second))
	res := &result{layer: map[string]float64{}}
	if rec == nil {
		ph, err := w.measure(e, 0, d, nil)
		if err != nil {
			return nil, err
		}
		res.e2e = endToEndOf(append(setups, ph.setups...), ph)
	} else {
		// End-to-end numbers always come from the untraced pass; the
		// traced pass gives the spans, and the two passes' medians give
		// the tracing overhead.
		ph0, err := w.measure(e, 0, d/2, nil)
		if err != nil {
			return nil, err
		}
		ph1, err := w.measure(e, 1, d/2, rec)
		if err != nil {
			return nil, err
		}
		res.e2e = endToEndOf(append(setups, ph0.setups...), ph0)
		layer, err := w.probe(e, rec)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for k, v := range ph1.layer {
			res.layer[k] = v
		}
		for k, v := range layer {
			res.layer[k] = v
		}
		for name, metric := range map[string]string{
			"workload.Traces": "workload.traces_ms",
			"runpool.Get":     "runpool.get_ms",
			"ssd.RunContext":  "ssd.run_ms",
		} {
			res.layer[metric] = rec.medianMs(name)
		}
		if b := median(ph0.latMs); b > 0 {
			res.layer["trace.overhead_pct"] = 100 * (median(ph1.latMs)/b - 1)
		}
		res.layer["host.ref_kernel_ms"] = e.sp.medianMs()
		if ph0.count > 0 {
			res.layer["proc.cpu_ms_per_op"] = ph0.cpuMs / float64(ph0.count)
		}
		rec.printSelfTimes(e.out)
	}
	if err := w.verify(e); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintf(e.out, "reference kernel: median %.4f ms over %d runs; host times are scaled to %.1f ms\n",
		e.sp.medianMs(), len(e.sp.ms), refNominalMs)
	res.attempted, res.failed = e.chk.attempted, e.chk.failed
	return res, nil
}

func endToEndOf(setups []float64, ph *phase) map[string]float64 {
	n := float64(ph.count)
	m := map[string]float64{
		"setup_s":          median(setups),
		"op_ms_p50":        quantile(ph.latMs, 0.5),
		"op_ms_p95":        quantile(ph.latMs, 0.95),
		"throughput_ops_s": ph.rate,
		"max_rss_mb":       ph.rssMB,
	}
	if ph.rate == 0 && ph.busy > 0 {
		m["throughput_ops_s"] = n / ph.busy
	}
	if ph.simSec > 0 {
		m["sim_events_per_s"] = ph.events / ph.simSec
	}
	if n > 0 {
		m["alloc_mb_per_op"] = ph.allocBytes / mb / n
	}
	return m
}

var allocsMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the bytes this process has allocated so far. It reads no
// stop-the-world statistics, so it can bracket every operation.
func heapAllocs() uint64 {
	metrics.Read(allocsMetric)
	return allocsMetric[0].Value.Uint64()
}
