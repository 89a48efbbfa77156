package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"time"

	"idaflash"
	"idaflash/internal/farm"
	"idaflash/internal/server"
	"idaflash/internal/workload"
)

// fig8ErrorRates are Figure 8's IDA error rates, E0 through E80.
var fig8ErrorRates = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// fig8Points is the Figure 8 sweep: every paper profile under Baseline and
// IDA-E0…E80, at the given request budget.
func fig8Points(requests int) []point {
	var pts []point
	for _, name := range workload.ProfileNames() {
		p := mustProfile(name, requests)
		pts = append(pts, point{p, idaflash.Baseline()})
		for _, er := range fig8ErrorRates {
			pts = append(pts, point{p, idaflash.IDA(er)})
		}
	}
	return pts
}

// spec is a point's system on the wire.
func spec(sys idaflash.System) server.SystemSpec {
	return server.SystemSpec{IDA: sys.IDA, ErrorRate: sys.ErrorRate}
}

// fig8Batch regenerates Figure 8 through the service, fully cold: every
// iteration starts a fresh idaserver on an empty store and posts the whole
// sweep as one explicit /v1/batch list.
type fig8Batch struct {
	requests int // per-point request budget; 0 keeps the server default
	pts      []point
	first    outputs
}

func newFig8Batch(e *env) runner {
	w := &fig8Batch{first: outputs{}}
	budget := serverRequests
	if e.quick {
		w.requests, budget = 300, 300
	}
	w.pts = fig8Points(budget)
	return w
}

func (w *fig8Batch) close() {}

// setup has nothing to prepare once: each iteration's server start is the
// set-up, timed inside measure.
func (w *fig8Batch) setup(e *env) ([]float64, error) { return nil, nil }

func (w *fig8Batch) measure(e *env, pass int, d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var (
		rss, pointMs, connMs []float64
		busyMs, sweepMs      float64 // unscaled, for the worker busy ratio
		heapEnd              float64
		counters             usageDelta
	)
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < d; iter++ {
		// The reference kernel runs while no server does.
		e.sp.sample(5)
		t0 := time.Now()
		srv, ready, err := startServer(e)
		if err != nil {
			return nil, err
		}
		u0, err := srv.usage()
		if err != nil {
			srv.stop()
			return nil, err
		}
		order := append([]point(nil), w.pts...)
		rng := rand.New(rand.NewSource(splitmix(e.seed, 8, int64(pass), int64(iter))))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		b, err := w.batch(e, srv, order, rec, int64(iter))
		if err != nil {
			srv.stop()
			return nil, err
		}
		u1, err := srv.usage()
		rss = append(rss, vmHWM(srv.pid()))
		srv.stop()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		e.sp.sample(5)
		f := e.sp.factor(t0, t1)
		ph.setups = append(ph.setups, ready.Seconds()*f)
		ph.latMs = append(ph.latMs, ms(b.sweep)*f)
		ph.busy += b.sweep.Seconds() * f
		ph.cpuMs += ms(u1.cpu-u0.cpu) * f
		ph.allocBytes += float64(u1.alloc - u0.alloc)
		ph.events += b.events
		connMs = append(connMs, ms(b.connWait))
		pointMs = append(pointMs, b.pointMs...)
		busyMs += sum(b.pointMs)
		sweepMs += ms(b.sweep)
		counters.add(u0.statz, u1.statz)
		heapEnd = float64(u1.statz.Runtime.HeapAllocBytes) / mb
	}
	ph.count = len(ph.latMs)
	ph.simSec = ph.busy
	ph.rssMB = median(rss)
	ph.layer["ssd.read_gain_pct"] = w.first.gain(w.pts)
	ph.layer["farm.point_ms_p50"] = quantile(pointMs, 0.5)
	ph.layer["farm.point_ms_p99"] = quantile(pointMs, 0.99)
	ph.layer["farm.worker_busy_ratio"] = busyMs / (2 * sweepMs)
	ph.layer["server.elapsed_ms_p50"] = quantile(pointMs, 0.5)
	ph.layer["gen.conn_wait_ms_p99"] = quantile(connMs, 0.99)
	ph.layer["proc.heap_mb_end"] = heapEnd
	counters.into(ph.layer)
	return ph, nil
}

// batchRun is one sweep's observations.
type batchRun struct {
	sweep, connWait time.Duration
	pointMs         []float64
	events          float64
}

// batch posts the sweep and reads the ndjson stream to its done event,
// checking every point's output.
func (w *fig8Batch) batch(e *env, srv *serverProc, order []point, rec *recorder, op int64) (*batchRun, error) {
	body := server.BatchRequest{Stream: "ndjson", Requests: w.requests}
	for _, pt := range order {
		body.Points = append(body.Points, server.BatchPoint{Profile: pt.p.Name, System: spec(pt.sys)})
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, srv.url+"/v1/batch", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var getConn, gotConn time.Time
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	}))
	b := &batchRun{}
	root, stream := rec.newID(), rec.newID()
	start := time.Now()
	resp, err := srv.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("posting the batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.chk.op(fmt.Sprintf("batch: %s", resp.Status))
		return nil, fmt.Errorf("batch answered %s", resp.Status)
	}
	var done *farm.Status
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for done == nil && sc.Scan() {
		var ev struct {
			Point *farm.PointResult `json:"point"`
			Done  *farm.Status      `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("decoding the batch stream: %w", err)
		}
		done = ev.Done
		if pr := ev.Point; pr != nil {
			now := time.Now()
			elapsed := time.Duration(pr.ElapsedMs) * time.Millisecond
			rec.add("farm.point", now.Add(-elapsed), now, 0, stream, op)
			b.pointMs = append(b.pointMs, float64(pr.ElapsedMs))
			seen++
			b.events += w.checkPoint(e, order, pr)
		}
	}
	b.sweep = time.Since(start)
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading the batch stream: %w", err)
	}
	if !gotConn.IsZero() {
		b.connWait = gotConn.Sub(getConn)
		rec.add("http.conn_wait", getConn, gotConn, 0, root, op)
		rec.add("http.stream", gotConn, start.Add(b.sweep), stream, root, op)
	}
	rec.add("batch", start, start.Add(b.sweep), root, 0, op)
	why := ""
	switch {
	case done == nil:
		why = "batch: stream ended without a done event"
	case done.Completed != len(order) || done.Failed != 0 || done.Cancelled != 0 || seen != len(order):
		why = fmt.Sprintf("batch: %d of %d points completed (%d failed, %d cancelled, %d streamed)",
			done.Completed, len(order), done.Failed, done.Cancelled, seen)
	}
	e.chk.op(why)
	return b, nil
}

// checkPoint checks one streamed point: it succeeded, its output matches
// digests.json, and a repeat matches the point's first output. It returns
// the point's simulated event count.
func (w *fig8Batch) checkPoint(e *env, order []point, pr *farm.PointResult) float64 {
	if pr.Index < 0 || pr.Index >= len(order) {
		e.chk.op(fmt.Sprintf("batch: point index %d out of range", pr.Index))
		return 0
	}
	pt := order[pr.Index]
	if pr.Error != "" {
		e.chk.op(fmt.Sprintf("%s: %s", pt.id(), pr.Error))
		return 0
	}
	var r idaflash.Results
	if err := json.Unmarshal(pr.Results, &r); err != nil {
		e.chk.op(fmt.Sprintf("%s: decoding results: %v", pt.id(), err))
		return 0
	}
	e.chk.op(w.first.check(e, pt, r.Scalars()))
	return float64(r.Events)
}

func (w *fig8Batch) probe(e *env, rec *recorder) (map[string]float64, error) {
	return probeLayers(e, w.pts[0].p, rec)
}

// verify has nothing left to do: every point of every sweep was checked
// against digests.json (or, at -quick scale, against the first sweep) as
// it streamed.
func (w *fig8Batch) verify(e *env) error { return nil }

// usageDelta accumulates /statz counter deltas across server lifetimes.
type usageDelta struct {
	hits, misses         uint64
	arenaHits, arenaGets uint64
	shed, admitted       uint64
	pauseNs              uint64
}

func (u *usageDelta) add(a, b server.Statz) {
	u.hits += b.Results.Hits - a.Results.Hits
	u.misses += b.Results.Misses - a.Results.Misses
	u.arenaHits += b.Arena.Hits - a.Arena.Hits
	u.arenaGets += b.Arena.Hits + b.Arena.Misses - a.Arena.Hits - a.Arena.Misses
	u.shed += b.Server.Shed - a.Server.Shed
	u.admitted += b.Server.Shed + b.Server.Accepted - a.Server.Shed - a.Server.Accepted
	u.pauseNs += b.Runtime.PauseTotalNs - a.Runtime.PauseTotalNs
}

func (u *usageDelta) into(m map[string]float64) {
	m["results.hit_ratio"] = ratio(u.hits, u.hits+u.misses)
	m["runpool.reuse_ratio"] = ratio(u.arenaHits, u.arenaGets)
	m["server.shed_ratio"] = ratio(u.shed, u.admitted)
	m["proc.gc_pause_ms"] = float64(u.pauseNs) / 1e6
}
