package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"idaflash"
	"idaflash/internal/server"
	"idaflash/internal/workload"
)

// serveSteps are serve-mixed's open-loop arrival rates in requests per
// second. The steps share the measured time; the latency step gets twice
// the others' share.
var serveSteps = []float64{100, 200, 400, 1600}

// latencyStep is the rate whose latencies are the workload's op_ms_*.
const latencyStep = 200

// The service-level objective a step must meet to count towards
// throughput_ops_s.
const (
	sloP99     = 100 * time.Millisecond
	sloLateP99 = 10 * time.Millisecond
)

// serveMixed is open-loop /v1/run traffic on one idaserver: mostly repeats
// of a primed hot set (result-store hits) and some never-seen points that
// simulate.
type serveMixed struct {
	repeats        int
	hot            []point
	coldLo, coldHi int // cold points' request budget range, [lo, hi)
	srv            *serverProc
	first          outputs
	seen           map[string]bool
	cold           []point // cold points served, in order
}

func newServeMixed(e *env) runner {
	w := &serveMixed{repeats: 3, coldLo: 2000, coldHi: 3000,
		first: outputs{}, seen: map[string]bool{}}
	budget := serverRequests
	if e.quick {
		w.repeats, budget, w.coldLo, w.coldHi = 1, 300, 250, 350
	}
	for _, name := range workload.ProfileNames() {
		p := mustProfile(name, budget)
		w.hot = append(w.hot, point{p, idaflash.Baseline()}, point{p, idaflash.IDA(0.2)})
		w.seen[point{p, idaflash.Baseline()}.id()] = true
		w.seen[point{p, idaflash.IDA(0.2)}.id()] = true
	}
	return w
}

func (w *serveMixed) close() {
	if w.srv != nil {
		w.srv.stop()
	}
}

// setup starts a server and primes the hot set through /v1/run, one point
// at a time, several times over; the last server serves the timed phase.
// Priming goes through /v1/run rather than the named figure8 batch sweep,
// which keys the same simulations differently (README.md).
func (w *serveMixed) setup(e *env) ([]float64, error) {
	var out []float64
	for r := 0; r < w.repeats; r++ {
		w.close()
		e.sp.sample(3)
		start := time.Now()
		srv, _, err := startServer(e)
		if err != nil {
			return nil, err
		}
		w.srv = srv
		for _, pt := range w.hot {
			rr := w.do(pt, time.Now(), nil, 0)
			if rr.why == "" {
				rr.why = w.first.check(e, pt, rr.res)
			}
			e.chk.op(rr.why)
		}
		end := time.Now()
		e.sp.sample(3)
		out = append(out, end.Sub(start).Seconds()*e.sp.factor(start, end))
	}
	return out, nil
}

// reqResult is one /v1/run request as the client saw it.
type reqResult struct {
	due      time.Time     // when the schedule wanted the request sent
	latency  time.Duration // from the scheduled send time to the last byte
	late     time.Duration // how late the generator sent it
	connWait time.Duration
	total    time.Duration // from the actual send to the last byte
	elapsed  time.Duration // the server's own time, from the response
	cached   bool
	res      idaflash.Results
	why      string // non-empty when the request failed
}

// do sends one point to /v1/run. due is when the schedule wanted it sent.
func (w *serveMixed) do(pt point, due time.Time, rec *recorder, op int64) reqResult {
	rr := reqResult{due: due}
	buf, err := json.Marshal(server.RunRequest{Profile: pt.p.Name, Requests: pt.p.Requests, System: spec(pt.sys)})
	if err != nil {
		rr.why = err.Error()
		return rr
	}
	req, err := http.NewRequest(http.MethodPost, w.srv.url+"/v1/run", bytes.NewReader(buf))
	if err != nil {
		rr.why = err.Error()
		return rr
	}
	req.Header.Set("Content-Type", "application/json")
	var getConn, gotConn, firstByte time.Time
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GetConn:              func(string) { getConn = time.Now() },
		GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
		GotFirstResponseByte: func() { firstByte = time.Now() },
	}))
	sent := time.Now()
	resp, err := w.srv.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	rr.latency, rr.late, rr.total = end.Sub(due), sent.Sub(due), end.Sub(sent)
	if !gotConn.IsZero() {
		rr.connWait = gotConn.Sub(getConn)
	}
	switch {
	case err != nil:
		rr.why = fmt.Sprintf("%s: %v", pt.id(), err)
		return rr
	case resp.StatusCode != http.StatusOK:
		rr.why = fmt.Sprintf("%s: %s: %s", pt.id(), resp.Status, bytes.TrimSpace(body))
		return rr
	}
	var rs server.RunResponse
	if err := json.Unmarshal(body, &rs); err != nil {
		rr.why = fmt.Sprintf("%s: decoding response: %v", pt.id(), err)
		return rr
	}
	rr.elapsed = time.Duration(rs.ElapsedMs) * time.Millisecond
	rr.cached = rs.Cached
	rr.res = rs.Results.Scalars()
	if rec != nil {
		root, trip := rec.newID(), rec.newID()
		rec.add("gen.late", due, sent, 0, root, op)
		if !gotConn.IsZero() {
			rec.add("http.conn_wait", getConn, gotConn, 0, root, op)
			rec.add("http.round_trip", gotConn, end, trip, root, op)
			if !firstByte.IsZero() {
				rec.add("server.elapsed", firstByte.Add(-rr.elapsed), firstByte, 0, trip, op)
			}
		}
		rec.add("http.run", due, end, root, 0, op)
	}
	return rr
}

// arrivals draws one step's requests. In every block of ten, one request
// at a random position is a point no earlier request used; the others
// repeat a random hot point. Cold points take the twenty profiles in turns
// of a shuffled order, a request budget drawn from [coldLo, coldHi) and
// Baseline or IDA-E0…E80. Stratifying the mix this way keeps the share and
// the cost of the misses, and so the latency percentiles, from depending
// on the seed.
func (w *serveMixed) arrivals(rng *rand.Rand, n int) []point {
	names := workload.ProfileNames()
	for _, p := range workload.ExtraProfiles(0) {
		names = append(names, p.Name)
	}
	var turn []string
	out := make([]point, n)
	coldAt := 0
	for k := range out {
		if k%10 == 0 {
			coldAt = k + rng.Intn(10)
		}
		if k != coldAt {
			out[k] = w.hot[rng.Intn(len(w.hot))]
			continue
		}
		for {
			if len(turn) == 0 {
				turn = append(turn, names...)
				rng.Shuffle(len(turn), func(i, j int) { turn[i], turn[j] = turn[j], turn[i] })
			}
			p := mustProfile(turn[0], w.coldLo+rng.Intn(w.coldHi-w.coldLo))
			sys := idaflash.Baseline()
			if k := rng.Intn(len(fig8ErrorRates) + 1); k > 0 {
				sys = idaflash.IDA(fig8ErrorRates[k-1])
			}
			pt := point{p, sys}
			if !w.seen[pt.id()] {
				w.seen[pt.id()] = true
				turn = turn[1:]
				out[k] = pt
				break
			}
		}
	}
	return out
}

// stepResult summarizes one arrival-rate step.
type stepResult struct {
	reqs   []reqResult
	failed int
	grew   bool
	// span is from the first scheduled send to the last answer, summed
	// over the step's rounds.
	span time.Duration
}

func (s *stepResult) latMs(f func(reqResult) time.Duration, q float64) float64 {
	xs := make([]float64, 0, len(s.reqs))
	for _, r := range s.reqs {
		xs = append(xs, ms(f(r)))
	}
	return quantile(xs, q)
}

// meets reports whether the step met the objective: p99 latency within
// the limit, no failures, a punctual generator, and no growing backlog.
func (s *stepResult) meets() bool {
	return s.failed == 0 && !s.grew &&
		s.latMs(func(r reqResult) time.Duration { return r.latency }, 0.99) <= ms(sloP99) &&
		s.latMs(func(r reqResult) time.Duration { return r.late }, 0.99) <= ms(sloLateP99)
}

// step sends the arrivals open-loop at rate, each from its own goroutine
// so a slow answer never delays the next send, and waits for every answer.
func (w *serveMixed) step(e *env, rate float64, pts []point, rec *recorder, op0 int64) *stepResult {
	st := &stepResult{reqs: make([]reqResult, len(pts))}
	backlog := make([]int64, len(pts))
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	for k := range pts {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		backlog[k] = outstanding.Add(1)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer outstanding.Add(-1)
			st.reqs[k] = w.do(pts[k], due, rec, op0+int64(k))
		}(k)
	}
	wg.Wait()
	for _, rr := range st.reqs {
		st.span = max(st.span, rr.due.Add(rr.latency).Sub(start))
	}
	// The backlog grows when the second half of the step finds clearly
	// more requests outstanding than the first half did.
	half := len(backlog) / 2
	first, second := 0.0, 0.0
	for k, b := range backlog {
		if k < half {
			first += float64(b)
		} else {
			second += float64(b)
		}
	}
	if half > 0 {
		first /= float64(half)
		second /= float64(len(backlog) - half)
		st.grew = second > 2*first+connsPerHost
	}
	for k, rr := range st.reqs {
		why := rr.why
		if why == "" {
			pt := pts[k]
			if _, primed := w.first[pt.id()]; !primed {
				w.cold = append(w.cold, pt)
			}
			why = w.first.check(e, pt, rr.res)
		}
		if why != "" {
			st.failed++
		}
		e.chk.op(why)
	}
	return st
}

func (w *serveMixed) measure(e *env, pass int, d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	u0, err := w.srv.usage()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		stop := w.sampleStatz(e)
		defer stop()
	}
	rng := rand.New(rand.NewSource(splitmix(e.seed, 7, int64(pass))))
	// The latency step runs twice as long as the others, so its p99 has
	// enough samples beyond it.
	share := d.Seconds() / float64(len(serveSteps)+1)
	var elapsed, transport, conn, late []float64
	for i, rate := range serveSteps {
		secs := share
		if rate == latencyStep {
			secs *= 2
		}
		pts := w.arrivals(rng, int(rate*secs))
		if rate != latencyStep {
			st := w.step(e, rate, pts, rec, int64(i)<<20)
			if !w.report(e, rate, st, ph) {
				break
			}
			continue
		}
		// The per-operation metrics describe the latency step. It runs
		// as one-second rounds of the open loop; after each round has
		// drained, the reference kernel runs while the server idles, so
		// the kernel measures the machine rather than this load.
		c0, err := procCPU(w.srv.pid())
		if err != nil {
			return nil, err
		}
		a0, err := w.srv.totalAlloc()
		if err != nil {
			return nil, err
		}
		e.sp.sample(5)
		t0 := time.Now()
		st := &stepResult{}
		for off := 0; off < len(pts); off += int(rate) {
			round := w.step(e, rate, pts[off:min(off+int(rate), len(pts))], rec, int64(i)<<20+int64(off))
			st.reqs = append(st.reqs, round.reqs...)
			st.failed += round.failed
			st.grew = st.grew || round.grew
			st.span += round.span
			e.sp.sample(5)
		}
		t1 := time.Now()
		c1, err := procCPU(w.srv.pid())
		if err != nil {
			return nil, err
		}
		a1, err := w.srv.totalAlloc()
		if err != nil {
			return nil, err
		}
		ph.cpuMs = ms(c1-c0) * e.sp.factor(t0, t1)
		ph.allocBytes = float64(a1 - a0)
		ph.count = len(st.reqs)
		for _, r := range st.reqs {
			// Only a request that simulates is scaled: a hit's latency is
			// network stack and scheduling, which the kernel does not
			// track, and scaling it adds the kernel's noise.
			f := 1.0
			if r.why == "" && !r.cached {
				f = e.sp.factor(r.due, r.due.Add(r.latency))
				ph.events += float64(r.res.Events)
				ph.simSec += r.elapsed.Seconds() * f
			}
			ph.latMs = append(ph.latMs, ms(r.latency)*f)
			if r.why != "" {
				continue
			}
			elapsed = append(elapsed, ms(r.elapsed))
			transport = append(transport, ms(r.total-r.connWait-r.elapsed))
			conn = append(conn, ms(r.connWait))
			late = append(late, ms(r.late))
		}
		if !w.report(e, rate, st, ph) {
			break
		}
	}
	u1, err := w.srv.usage()
	if err != nil {
		return nil, err
	}
	ph.rssMB = vmHWM(w.srv.pid())
	ph.layer["ssd.read_gain_pct"] = w.first.gain(w.hot)
	ph.layer["server.elapsed_ms_p50"] = quantile(elapsed, 0.5)
	ph.layer["server.transport_ms_p50"] = quantile(transport, 0.5)
	ph.layer["gen.conn_wait_ms_p99"] = quantile(conn, 0.99)
	ph.layer["gen.late_ms_p99"] = quantile(late, 0.99)
	ph.layer["proc.heap_mb_end"] = float64(u1.statz.Runtime.HeapAllocBytes) / mb
	var counters usageDelta
	counters.add(u0.statz, u1.statz)
	counters.into(ph.layer)
	return ph, nil
}

// report prints a step's summary, takes the phase's throughput from the
// step when it met the objective, and reports whether the next step should
// run: every step up to the latency step always runs, later
// ones only while the objective holds.
func (w *serveMixed) report(e *env, rate float64, st *stepResult, ph *phase) bool {
	ok := st.meets()
	fmt.Fprintf(e.out, "step %4.0f/s: %5d requests, p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms, failed %d, backlog grew %v, meets objective %v\n",
		rate, len(st.reqs),
		st.latMs(func(r reqResult) time.Duration { return r.latency }, 0.5),
		st.latMs(func(r reqResult) time.Duration { return r.latency }, 0.99),
		st.latMs(func(r reqResult) time.Duration { return r.late }, 0.99),
		st.failed, st.grew, ok)
	if ok {
		// The steps ascend, so the last step to meet the objective sets
		// the throughput: the rate it served its requests at.
		ph.rate = float64(len(st.reqs)) / st.span.Seconds()
	}
	return ok || rate < latencyStep
}

// sampleStatz prints the server's /statz counters once a second until the
// returned stop function is called; stop returns after the sampler exits.
func (w *serveMixed) sampleStatz(e *env) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(exited)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				st, err := w.srv.statz()
				if err != nil {
					fmt.Fprintf(e.log, "bench: sampling /statz: %v\n", err)
					continue
				}
				fmt.Fprintf(e.out, "statz +%.0fs: accepted %d completed %d shed %d in_flight %d | results hits %d misses %d | arena hits %d misses %d | heap %.1f MB, %d GCs\n",
					time.Since(start).Seconds(), st.Server.Accepted, st.Server.Completed, st.Server.Shed, st.Server.InFlight,
					st.Results.Hits, st.Results.Misses, st.Arena.Hits, st.Arena.Misses,
					float64(st.Runtime.HeapAllocBytes)/mb, st.Runtime.NumGC)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func (w *serveMixed) probe(e *env, rec *recorder) (map[string]float64, error) {
	return probeLayers(e, w.hot[0].p, rec)
}

// verify recomputes the hot set and up to 12 seed-chosen cold points
// in-process on the reference path and compares them with what the server
// answered. The hot set's IDA points restored their aged state from a
// snapshot, so this also checks the restore path at every seed.
func (w *serveMixed) verify(e *env) error {
	w.first.verify(e, append(append([]point(nil), w.hot...), seedSample(e.seed, w.cold, 12)...))
	return nil
}
