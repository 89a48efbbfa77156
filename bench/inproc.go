package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"idaflash"
	"idaflash/internal/snapshot"
	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

// refEvery is how often a closed loop times the reference kernel between
// operations (about 7% of the run): densely enough to follow the machine's
// drift, which changes within seconds.
const refEvery = 30 * time.Millisecond

// opCost is one in-process operation's host cost.
type opCost struct {
	start     time.Time
	wall, cpu time.Duration
	alloc     uint64
	events    uint64
}

// timeOp runs f and measures its wall time, this process's CPU time (all
// threads, so garbage collection the operation causes counts) and the bytes
// it allocated.
func timeOp(f func()) opCost {
	c := opCost{start: time.Now()}
	cpu0, a0 := selfCPU(), heapAllocs()
	f()
	c.wall = time.Since(c.start)
	c.cpu = selfCPU() - cpu0
	c.alloc = heapAllocs() - a0
	return c
}

// inproc is a closed loop of RunWorkload calls from one goroutine: the
// library user's view of the simulator.
type inproc struct {
	// pointAt is the workload's operation sequence, a pure function of
	// the seed and the operation index.
	pointAt func(i int) point
	// prime is one set-up repetition: it runs the points the timed phase
	// must find warm (or that build its device) and returns them.
	prime   func(e *env, r int) []point
	repeats int
	// warm lists the points the traced replica runs once before its
	// pass, so it starts as warm as the facade did.
	warm []point
	// gain computes ssd.read_gain_pct from the outputs seen so far.
	gain func(w *inproc) float64

	first outputs         // first output of each point
	ops   []point         // untraced pass's operations, in order
	store *snapshot.Store // the traced replica's own snapshot store
}

func (w *inproc) close() {}

func (w *inproc) setup(e *env) ([]float64, error) {
	w.first = outputs{}
	w.store = snapshot.NewStore(0)
	var out []float64
	for r := 0; r < w.repeats; r++ {
		e.sp.sample(3)
		start := time.Now()
		pts := w.prime(e, r)
		end := time.Now()
		e.sp.sample(3)
		out = append(out, end.Sub(start).Seconds()*e.sp.factor(start, end))
		for _, pt := range pts {
			if _, ok := w.first[pt.id()]; !ok {
				return nil, fmt.Errorf("setup did not run %s", pt.id())
			}
		}
	}
	return out, nil
}

// runFacade runs one point through the facade and checks its output: a
// repeat must match the point's first output exactly, and a first output
// must match digests.json.
func (w *inproc) runFacade(e *env, pt point) (opCost, bool) {
	var r idaflash.Results
	var err error
	c := timeOp(func() { r, err = idaflash.RunWorkload(pt.p, pt.sys) })
	if err != nil {
		e.chk.op(fmt.Sprintf("%s: %v", pt.id(), err))
		return c, false
	}
	c.events = r.Events
	why := w.first.check(e, pt, r.Scalars())
	e.chk.op(why)
	return c, why == ""
}

// runReplica replays the facade's public call sequence for one point with
// a span around each layer call, using the benchmark's own snapshot store.
// Its output must equal the facade's for the same point, which catches
// drift between this replica and the facade; a point the facade has not
// run yet runs through it afterwards, untimed.
func (w *inproc) runReplica(e *env, rec *recorder, op int64, pt point) (opCost, bool) {
	var r idaflash.Results
	var err error
	root := rec.newID()
	c := timeOp(func() { r, err = replica(rec, root, op, pt, w.store) })
	rec.add("op", c.start, c.start.Add(c.wall), root, 0, op)
	if err != nil {
		e.chk.op(fmt.Sprintf("replica %s: %v", pt.id(), err))
		return c, false
	}
	c.events = r.Events
	if _, ok := w.first[pt.id()]; !ok {
		if _, ok := w.runFacade(e, pt); !ok {
			return c, false
		}
	}
	why := ""
	if w.first[pt.id()] != r.Scalars() {
		why = fmt.Sprintf("replica %s: output differs from the facade's", pt.id())
	}
	e.chk.op(why)
	return c, why == ""
}

func (w *inproc) measure(e *env, pass int, d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	if pass == 1 {
		// A warm workload's replica must start warm too.
		for _, pt := range w.warm {
			if _, err := replica(nil, 0, 0, pt, w.store); err != nil {
				return nil, fmt.Errorf("priming the replica with %s: %w", pt.id(), err)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	arena0 := idaflash.ArenaStats()
	var costs []opCost
	e.sp.sample(3)
	lastRef := time.Now()
	deadline := lastRef.Add(d)
	// The traced pass continues the operation sequence where the
	// untraced one stopped, so a cold workload stays cold.
	from := len(w.ops)
	for i := from; time.Now().Before(deadline); i++ {
		if time.Since(lastRef) >= refEvery {
			e.sp.sample(1)
			lastRef = time.Now()
		}
		pt := w.pointAt(i)
		var c opCost
		var ok bool
		if rec == nil {
			c, ok = w.runFacade(e, pt)
			w.ops = append(w.ops, pt)
		} else {
			c, ok = w.runReplica(e, rec, int64(i), pt)
		}
		if ok {
			costs = append(costs, c)
		}
	}
	e.sp.sample(3)
	for _, c := range costs {
		f := e.sp.factor(c.start, c.start.Add(c.wall))
		ph.latMs = append(ph.latMs, ms(c.wall)*f)
		ph.busy += c.wall.Seconds() * f
		ph.cpuMs += ms(c.cpu) * f
		ph.allocBytes += float64(c.alloc)
		ph.events += float64(c.events)
	}
	ph.count = len(costs)
	ph.simSec = ph.busy
	ph.rssMB = vmHWM("self")
	runtime.ReadMemStats(&m1)
	arena1 := idaflash.ArenaStats()
	ph.layer["ssd.read_gain_pct"] = w.gain(w)
	ph.layer["runpool.reuse_ratio"] = ratio(arena1.Hits-arena0.Hits, arena1.Hits-arena0.Hits+arena1.Misses-arena0.Misses)
	ph.layer["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	ph.layer["proc.heap_mb_end"] = float64(m1.HeapAlloc) / mb
	return ph, nil
}

// replicaKey keys the replica's snapshot store. Everything the aged state
// depends on that varies across this benchmark's points is folded in: the
// normalized profile and the device shape it sizes.
func replicaKey(np idaflash.Profile, cfg idaflash.SSDConfig) string {
	b, err := json.Marshal(struct {
		P idaflash.Profile
		G idaflash.Geometry
	}{np, cfg.Geometry})
	if err != nil {
		return ""
	}
	return string(b)
}

// replica is the facade's RunWorkload for one device, call for call, with
// spans.
func replica(rec *recorder, parent, op int64, pt point, store *snapshot.Store) (idaflash.Results, error) {
	var (
		cfg      idaflash.SSDConfig
		np       idaflash.Profile
		tr, pre  *workload.Trace
		dev      *ssd.SSD
		res      idaflash.Results
		err      error
		traceErr error
	)
	rec.timed("idaflash.BuildConfig", parent, op, func() { cfg, np, err = idaflash.BuildConfig(pt.p, pt.sys) })
	if err != nil {
		return res, err
	}
	rec.timed("workload.Traces", parent, op, func() { tr, pre, traceErr = workload.DefaultTraceCache.Traces(np) })
	if traceErr != nil {
		return res, traceErr
	}
	rec.timed("runpool.Get", parent, op, func() { dev, err = idaflash.DefaultArena.Get(cfg) })
	if err != nil {
		return res, err
	}
	opts := ssd.RunOptions{Preamble: pre, Snapshots: store, SnapshotKey: replicaKey(np, cfg)}
	rec.timed("ssd.RunContext", parent, op, func() { res, err = dev.RunContext(context.Background(), tr, opts) })
	if err != nil {
		return res, err
	}
	rec.timed("runpool.Put", parent, op, func() { idaflash.DefaultArena.Put(dev) })
	return res, nil
}

func (w *inproc) probe(e *env, rec *recorder) (map[string]float64, error) {
	// The traced pass already recorded this workload's facade spans.
	return probeLayers(e, w.pointAt(0).p, nil)
}

// verify recomputes up to 12 seed-chosen points of the untraced pass on the
// reference path.
func (w *inproc) verify(e *env) error {
	seen := map[string]bool{}
	var pts []point
	for _, pt := range w.ops {
		if !seen[pt.id()] {
			seen[pt.id()] = true
			pts = append(pts, pt)
		}
	}
	w.first.verify(e, seedSample(e.seed, pts, 12))
	return nil
}

// scale holds the input sizes; the smoke test shrinks them with -quick.
type scale struct {
	warmRequests, coldRequests int
	warmSeeds, repeats         int
}

func scaleOf(e *env) scale {
	if e.quick {
		return scale{warmRequests: 2000, coldRequests: 800, warmSeeds: 2, repeats: 1}
	}
	return scale{warmRequests: 10000, coldRequests: 2500, warmSeeds: 32, repeats: 3}
}

// warmSet is set-up repetition r's points for warm-read: hm_1 under many
// seed-derived profile seeds, each under Baseline and IDA-E20. Traces of
// different profile seeds cost up to ±15% apart; averaging over 32 keeps
// the workload's cost from depending on the seed.
func warmSet(seed int64, r int, sc scale) []point {
	var pts []point
	for j := 0; j < sc.warmSeeds; j++ {
		p := mustProfile("hm_1", sc.warmRequests)
		p.Seed = splitmix(seed, 1, int64(r), int64(j))
		pts = append(pts, point{p, idaflash.Baseline()}, point{p, idaflash.IDA(0.2)})
	}
	return pts
}

// coldPoint is cold-write's operation i: src1_0 under a profile seed no
// other operation uses, alternating Baseline and IDA-E20. Set-up points use
// negative i.
func coldPoint(seed int64, i int, sc scale) point {
	p := mustProfile("src1_0", sc.coldRequests)
	p.Seed = splitmix(seed, 2, int64(i))
	sys := idaflash.Baseline()
	if i%2 != 0 {
		sys = idaflash.IDA(0.2)
	}
	return point{p, sys}
}

func newWarmRead(e *env) runner {
	sc := scaleOf(e)
	set := warmSet(e.seed, sc.repeats-1, sc)
	w := &inproc{repeats: sc.repeats, warm: set}
	w.pointAt = func(i int) point { return set[i%len(set)] }
	w.prime = func(e *env, r int) []point {
		pts := warmSet(e.seed, r, sc)
		for _, pt := range pts {
			w.runFacade(e, pt)
		}
		return pts
	}
	w.gain = func(w *inproc) float64 { return w.first.gain(set) }
	return w
}

func newColdWrite(e *env) runner {
	sc := scaleOf(e)
	w := &inproc{repeats: sc.repeats}
	w.pointAt = func(i int) point { return coldPoint(e.seed, i, sc) }
	// Set-up builds the device the timed phase reuses: the pool starts
	// empty, and the first run of a geometry pays for its construction.
	w.prime = func(e *env, r int) []point {
		idaflash.DefaultArena.Drain()
		pt := coldPoint(e.seed, -1-r, sc)
		w.runFacade(e, pt)
		return []point{pt}
	}
	// The gain pools the first 64 operations, so it does not depend on how
	// many operations the host managed.
	w.gain = func(w *inproc) float64 { return w.first.gain(w.ops[:min(64, len(w.ops))]) }
	return w
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
