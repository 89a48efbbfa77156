package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/snapshot"
	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

// warmupFraction is ssd.RunOptions' default, which the facade uses.
const warmupFraction = 0.3

// medianTime runs f n times and returns the median duration in ms.
func medianTime(n int, f func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, ms(time.Since(start)))
	}
	return median(ds), nil
}

// probeLayers times isolated calls into each layer's exported functions on
// the workload's own point: p under IDA-E20. With a recorder it also runs
// the traced facade replica on the point (the HTTP workloads' only source
// of in-process spans).
func probeLayers(e *env, p idaflash.Profile, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	np, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	sys := idaflash.IDA(0.2)
	pt := point{np, sys}

	var tr, pre *workload.Trace
	if m["workload.generate_ms"], err = medianTime(3, func() error {
		if tr, err = np.Generate(); err != nil {
			return err
		}
		pre, err = np.AgingPreamble()
		return err
	}); err != nil {
		return nil, err
	}

	// The facade's output for the point, and the replica's, which must
	// agree; the replica's snapshot store then holds the aged state the
	// simulator itself captured.
	res, err := idaflash.RunWorkload(np, sys)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pt.id(), err)
	}
	store := snapshot.NewStore(0)
	systems := []idaflash.System{sys}
	if rec != nil {
		systems = []idaflash.System{sys, idaflash.Baseline(), sys, idaflash.Baseline()}
	}
	for i, s := range systems {
		rp := point{np, s}
		want, err := idaflash.RunWorkload(np, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rp.id(), err)
		}
		op := -1 - int64(i)
		root := rec.newID()
		start := time.Now()
		got, err := replica(rec, root, op, rp, store)
		rec.add("op", start, time.Now(), root, 0, op)
		switch {
		case err != nil:
			e.chk.op(fmt.Sprintf("replica %s: %v", rp.id(), err))
		case got.Scalars() != want.Scalars():
			e.chk.op(fmt.Sprintf("replica %s: output differs from the facade's", rp.id()))
		default:
			e.chk.op("")
		}
	}

	cfg, _, err := idaflash.BuildConfig(np, sys)
	if err != nil {
		return nil, err
	}
	dev, err := ssd.New(cfg)
	if err != nil {
		return nil, err
	}
	f := dev.FTL()
	warmup := int(float64(len(tr.Requests)) * warmupFraction)
	ag, err := ageFTL(f, tr, pre, warmup, cfg.Geometry.PageSizeBytes)
	if err != nil {
		return nil, err
	}
	m["ftl.age_ms"] = ms(ag.total)
	m["ftl.gc_ms"] = ms(ag.gc)
	m["ftl.write_ns_per_page"] = float64((ag.total - ag.gc).Nanoseconds()) / float64(ag.pages)
	aged := f.Snapshot()

	// The probe's replay must reach the state the simulator captured,
	// byte for byte, or its timings describe some other work.
	enc, err := snapshot.Encode(&snapshot.DeviceState{FTL: aged})
	if err != nil {
		return nil, err
	}
	captured, _, err := store.Get(context.Background(), replicaKey(np, cfg))
	switch {
	case err != nil:
		return nil, err
	case captured == nil:
		e.chk.op(fmt.Sprintf("%s: the replica captured no aged state", pt.id()))
	default:
		want, err := snapshot.Encode(captured)
		if err != nil {
			return nil, err
		}
		why := ""
		if !bytes.Equal(enc, want) {
			why = fmt.Sprintf("%s: the FTL probe's aged state differs from the simulator's", pt.id())
		}
		e.chk.op(why)
	}

	m["snapshot.state_mb"] = float64(len(enc)) / mb
	if m["snapshot.encode_ms"], err = medianTime(5, func() error {
		_, err := snapshot.Encode(&snapshot.DeviceState{FTL: aged})
		return err
	}); err != nil {
		return nil, err
	}
	if m["snapshot.decode_ms"], err = medianTime(5, func() error {
		_, err := snapshot.Decode(enc)
		return err
	}); err != nil {
		return nil, err
	}
	fresh, err := ssd.New(cfg)
	if err != nil {
		return nil, err
	}
	if m["ftl.restore_ms"], err = medianTime(5, func() error { return fresh.FTL().Restore(aged) }); err != nil {
		return nil, err
	}

	measured := tr.Requests[warmup:]
	pageSize := int64(cfg.Geometry.PageSizeBytes)
	var readNs []float64
	for rep := 0; rep < 3; rep++ {
		pages := 0
		start := time.Now()
		for _, r := range measured {
			if !r.Read {
				continue
			}
			first, count := lpnRange(r, pageSize)
			for i := ftl.LPN(0); i < count; i++ {
				f.Read(first + i)
				pages++
			}
		}
		if pages > 0 {
			readNs = append(readNs, float64(time.Since(start).Nanoseconds())/float64(pages))
		}
	}
	m["ftl.read_ns_per_page"] = median(readNs)

	// The refresh scan at each of the run's scan ticks, on the aged FTL
	// with the run's age stagger but without the run's host traffic.
	f.StaggerBlockAges(0)
	interval := cfg.RefreshScanInterval
	ticks := int((measured[len(measured)-1].At - measured[0].At) / interval)
	var scan time.Duration
	jobs := 0
	for k := 1; k <= ticks; k++ {
		start := time.Now()
		js, err := f.DueRefreshes(sim.Time(k) * interval)
		scan += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("refresh probe: %w", err)
		}
		jobs += len(js)
	}
	if ticks > 0 {
		m["ftl.refresh_scan_us"] = float64(scan.Nanoseconds()) / 1e3 / float64(ticks)
		m["ftl.refresh_jobs_per_scan"] = float64(jobs) / float64(ticks)
	}

	events := 200_000
	if e.quick {
		events = 20_000
	}
	for _, depth := range []int{16, 256} {
		var ns []float64
		for rep := 0; rep < 3; rep++ {
			v, err := engineNsPerEvent(depth, events)
			if err != nil {
				return nil, err
			}
			ns = append(ns, v)
		}
		m[fmt.Sprintf("sim.engine_ns_per_event_d%d", depth)] = median(ns)
	}
	var rns []float64
	for rep := 0; rep < 3; rep++ {
		v, err := resourceNsPerOp(events)
		if err != nil {
			return nil, err
		}
		rns = append(rns, v)
	}
	m["sim.resource_ns_per_op"] = median(rns)

	const keys = 2000
	start := time.Now()
	for i := 0; i < keys; i++ {
		if _, err := experiments.Key(np, sys); err != nil {
			return nil, err
		}
	}
	m["experiments.key_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / keys
	if m["results.encode_ms"], err = medianTime(20, func() error {
		_, err := json.Marshal(res)
		return err
	}); err != nil {
		return nil, err
	}

	// Simulated statistics of the point: they repeat exactly.
	m["ssd.events_per_run"] = float64(res.Events)
	m["ssd.host_queue_wait_ms"] = ms(res.Stages.Admission.HostQueueWait)
	m["ssd.gc_busy_ms"] = ms(res.GCBusy)
	m["ssd.refresh_busy_ms"] = ms(res.RefreshBusy)
	m["ssd.die_util"] = res.MeanDieUtilization
	m["ftl.gc_moves"] = float64(res.FTL.GCMoves)
	m["ftl.refresh_moves"] = float64(res.FTL.RefreshMoves)
	m["ftl.ida_adjusted_wls"] = float64(res.FTL.IDAAdjustedWLs)
	m["ftl.write_amp"] = res.WriteAmplification
	return m, nil
}

// aging is the FTL probe's account of the zero-time phases.
type aging struct {
	total, gc time.Duration
	pages     int
}

// ageFTL replays the zero-time phases of ssd.SSD.RunContext through the
// FTL's exported calls, in the same order: prefill of the trace's whole
// footprint with a GC pass every 1024 pages, then every write of the aging
// preamble and the warmup with a GC pass per request, then closing the
// active blocks.
func ageFTL(f *ftl.FTL, tr, pre *workload.Trace, warmup, pageSize int) (aging, error) {
	var a aging
	start := time.Now()
	collect := func() error {
		t := time.Now()
		_, err := f.CollectGC(0)
		a.gc += time.Since(t)
		return err
	}
	var maxEnd int64
	for _, r := range tr.Requests {
		maxEnd = max(maxEnd, r.End())
	}
	pages := ftl.LPN((maxEnd + int64(pageSize) - 1) / int64(pageSize))
	for lpn := ftl.LPN(0); lpn < pages; lpn++ {
		if _, err := f.Write(lpn, 0); err != nil {
			return a, fmt.Errorf("prefill: %w", err)
		}
		a.pages++
		if lpn%1024 == 0 {
			if err := collect(); err != nil {
				return a, fmt.Errorf("prefill: %w", err)
			}
		}
	}
	if err := collect(); err != nil {
		return a, fmt.Errorf("prefill: %w", err)
	}
	replay := func(reqs []workload.Request) error {
		for _, r := range reqs {
			if r.Read {
				continue
			}
			first, count := lpnRange(r, int64(pageSize))
			for i := ftl.LPN(0); i < count; i++ {
				if _, err := f.Write(first+i, 0); err != nil {
					return err
				}
				a.pages++
			}
			if err := collect(); err != nil {
				return err
			}
		}
		return nil
	}
	if pre != nil {
		if err := replay(pre.Requests); err != nil {
			return a, fmt.Errorf("preamble: %w", err)
		}
	}
	if err := replay(tr.Requests[:warmup]); err != nil {
		return a, fmt.Errorf("warmup: %w", err)
	}
	f.CloseActiveBlocks()
	a.total = time.Since(start)
	return a, nil
}

// lpnRange maps a request onto the logical pages it covers.
func lpnRange(r workload.Request, pageSize int64) (first, count ftl.LPN) {
	first = ftl.LPN(r.Offset / pageSize)
	last := ftl.LPN((r.End() - 1) / pageSize)
	return first, last - first + 1
}

// bouncer is an engine event that re-arms itself a pseudo-random 1-1024 ns
// later until the shared budget runs out, holding the heap at a fixed depth.
type bouncer struct {
	e    *sim.Engine
	left *int
	x    uint64
}

func (b *bouncer) Run() {
	if *b.left <= 0 {
		return
	}
	*b.left--
	b.x = b.x*6364136223846793005 + 1442695040888963407
	b.e.AfterAction(time.Duration(1+b.x>>54), b)
}

// engineNsPerEvent is the engine's host time per event at a heap depth.
func engineNsPerEvent(depth, events int) (float64, error) {
	e := sim.NewEngine()
	left := events
	for i := 0; i < depth; i++ {
		e.AfterAction(time.Duration(i+1), &bouncer{e: e, left: &left, x: uint64(i) + 1})
	}
	start := time.Now()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(e.Processed()), nil
}

// user holds a resource for 1 µs and asks for it again on completion.
type user struct {
	r    *sim.Resource
	left *int
	prio sim.Priority
}

func (u *user) Run() {
	if *u.left <= 0 {
		return
	}
	*u.left--
	u.r.AcquireAction(u.prio, time.Microsecond, u)
}

// resourceNsPerOp is the host time of one acquire-serve-complete cycle on a
// resource four waiters of mixed priority contend for.
func resourceNsPerOp(ops int) (float64, error) {
	e := sim.NewEngine()
	r := sim.NewResource(e, "probe")
	left := ops
	start := time.Now()
	for i := 0; i < 4; i++ {
		(&user{r: r, left: &left, prio: sim.Priority(i % 3)}).Run()
	}
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}
