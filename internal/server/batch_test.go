package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/farm"
)

// batchEvent is one parsed stream message (either framing).
type batchEvent struct {
	Job   *farm.Status      `json:"job"`
	Point *farm.PointResult `json:"point"`
	Done  *farm.Status      `json:"done"`
}

// readNDJSON parses a whole ndjson stream.
func readNDJSON(t *testing.T, body io.Reader) []batchEvent {
	t.Helper()
	var evs []batchEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev batchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// postBatch sends a batch request and fails on transport errors.
func postBatch(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const twoPoints = `{"stream":"ndjson","points":[
	{"profile":"usr_1","system":{"ida":true,"error_rate":0.2}},
	{"profile":"proj_3","system":{}}]}`

func traceRun(counter *atomic.Int64) func(context.Context, idaflash.Profile, idaflash.System) (idaflash.Results, error) {
	return func(_ context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		if counter != nil {
			counter.Add(1)
		}
		return idaflash.Results{Trace: p.Name + "/" + sys.Name}, nil
	}
}

func TestBatchNDJSONStreamsEveryPoint(t *testing.T) {
	s := stubServer(Config{Workers: 2}, traceRun(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postBatch(t, ts, twoPoints)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	evs := readNDJSON(t, resp.Body)
	if len(evs) != 4 { // job, 2 points, done
		t.Fatalf("stream carried %d events, want 4: %+v", len(evs), evs)
	}
	if evs[0].Job == nil || evs[0].Job.Total != 2 || evs[0].Job.State != farm.StateRunning {
		t.Fatalf("first event is not the job header: %+v", evs[0])
	}
	systems := map[string]bool{}
	for _, ev := range evs[1:3] {
		if ev.Point == nil || ev.Point.Error != "" {
			t.Fatalf("expected clean point event, got %+v", ev)
		}
		var res idaflash.Results
		if err := json.Unmarshal(ev.Point.Results, &res); err != nil {
			t.Fatalf("point payload: %v", err)
		}
		if res.Trace != ev.Point.Profile+"/"+ev.Point.System {
			t.Errorf("payload trace %q for point %s/%s", res.Trace, ev.Point.Profile, ev.Point.System)
		}
		systems[ev.Point.System] = true
	}
	if !systems["IDA-E20"] || !systems["Baseline"] {
		t.Errorf("systems seen: %v", systems)
	}
	done := evs[3].Done
	if done == nil || done.State != farm.StateDone || done.Completed != 2 || done.CacheHits != 0 {
		t.Fatalf("terminal event %+v", done)
	}
}

func TestBatchSSEFraming(t *testing.T) {
	s := stubServer(Config{Workers: 2}, traceRun(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postBatch(t, ts, `{"points":[{"profile":"usr_1","system":{}}]}`)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event: job\ndata: {", "event: point\ndata: {", "event: done\ndata: {"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("stream missing %q:\n%s", want, raw)
		}
	}
}

// TestBatchRepeatServedFromCache is the tentpole contract: re-posting the
// same batch re-runs zero simulations and returns byte-identical payloads.
func TestBatchRepeatServedFromCache(t *testing.T) {
	var runs atomic.Int64
	s := stubServer(Config{Workers: 2}, traceRun(&runs))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	payloads := func() map[int]string {
		resp := postBatch(t, ts, twoPoints)
		defer resp.Body.Close()
		out := map[int]string{}
		for _, ev := range readNDJSON(t, resp.Body) {
			if ev.Point != nil {
				out[ev.Point.Index] = string(ev.Point.Results)
			}
		}
		return out
	}

	cold := payloads()
	if got := runs.Load(); got != 2 {
		t.Fatalf("cold batch ran %d simulations, want 2", got)
	}
	warm := payloads()
	if got := runs.Load(); got != 2 {
		t.Fatalf("repeat batch re-ran simulations (%d total)", got)
	}
	for idx, b := range cold {
		if warm[idx] != b {
			t.Errorf("point %d: cached payload differs from cold run:\n%s\n%s", idx, b, warm[idx])
		}
	}

	// The repeat's terminal event accounts every point as a cache hit.
	resp := postBatch(t, ts, twoPoints)
	defer resp.Body.Close()
	evs := readNDJSON(t, resp.Body)
	done := evs[len(evs)-1].Done
	if done == nil || done.CacheHits != 2 {
		t.Errorf("terminal event %+v, want 2 cache hits", done)
	}
}

// TestBatchDisconnectCancelsRemainingPoints: when the submitting SSE client
// goes away, the job's running point is cancelled, its queued points never
// start, the worker pool is released, and no goroutines leak.
func TestBatchDisconnectCancelsRemainingPoints(t *testing.T) {
	started := make(chan struct{}, 16)
	s := stubServer(Config{Workers: 1}, func(ctx context.Context, p idaflash.Profile, _ idaflash.System) (idaflash.Results, error) {
		if p.Name == "proj_3" { // the post-cancel health probe
			return idaflash.Results{Trace: p.Name}, nil
		}
		started <- struct{}{}
		<-ctx.Done()
		return idaflash.Results{}, ctx.Err()
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"points":[
		{"profile":"usr_1","system":{}},
		{"profile":"usr_1","system":{"ida":true,"error_rate":0.2}},
		{"profile":"usr_1","system":{"ida":true,"error_rate":0.25}},
		{"profile":"usr_1","system":{"ida":true,"error_rate":0.3}}]}`
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the job header so we can poll it after disconnecting.
	br := bufio.NewReader(resp.Body)
	var jobID string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var st farm.Status
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				t.Fatal(err)
			}
			jobID = st.ID
			break
		}
	}
	<-started // the first point occupies the only worker slot
	cancel()  // client disconnects mid-batch
	resp.Body.Close()

	// The job converges to cancelled with all four points recorded and
	// none of the queued three ever started.
	deadline := time.Now().Add(5 * time.Second)
	var st farm.Status
	for {
		jr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(jr.Body).Decode(&st)
		jr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != farm.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != farm.StateCancelled || st.Cancelled != 4 || len(st.Points) != 4 {
		t.Fatalf("job after disconnect: %+v", st)
	}
	if len(started) != 0 {
		t.Errorf("%d queued points started after disconnect", len(started))
	}

	// The worker slot is free again: a single run completes immediately.
	resp2, _, err := postRun(ts, runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel run status %d", resp2.StatusCode)
	}

	// And nothing leaked: subscriber, job-watcher, and point goroutines all
	// unwound (the farm dispatcher predates the baseline). Keep-alive
	// connections hold read loops on both sides, so they are torn down
	// before counting.
	gDeadline := time.Now().Add(2 * time.Second)
	for {
		ts.Client().Transport.(*http.Transport).CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(gDeadline) {
			t.Fatalf("goroutines: %d before, %d after disconnect handling", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchDetachedPollAndResume: stream "none" answers 202 immediately;
// the job is pollable and its stream resumable from an event offset.
func TestBatchDetachedPollAndResume(t *testing.T) {
	s := stubServer(Config{Workers: 2}, traceRun(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postBatch(t, ts, `{"stream":"none","points":[
		{"profile":"usr_1","system":{}},
		{"profile":"proj_3","system":{}}]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st farm.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("202 body names no job")
	}

	deadline := time.Now().Add(5 * time.Second)
	var poll farm.Status
	for {
		jr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(jr.Body).Decode(&poll); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if poll.State == farm.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", poll)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if poll.Completed != 2 || len(poll.Points) != 2 {
		t.Fatalf("poll body %+v", poll)
	}

	// Resuming from the end replays nothing but still closes with done;
	// resuming from 0 replays everything.
	jr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "?watch=ndjson&from=" + fmt.Sprint(poll.NextEvent))
	if err != nil {
		t.Fatal(err)
	}
	evs := readNDJSON(t, jr.Body)
	jr.Body.Close()
	points := 0
	for _, ev := range evs {
		if ev.Point != nil {
			points++
		}
	}
	if points != 0 || evs[len(evs)-1].Done == nil {
		t.Fatalf("resume-from-end stream: %+v", evs)
	}
	jr, err = ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "?watch=ndjson&from=0")
	if err != nil {
		t.Fatal(err)
	}
	evs = readNDJSON(t, jr.Body)
	jr.Body.Close()
	points = 0
	for _, ev := range evs {
		if ev.Point != nil {
			points++
		}
	}
	if points != 2 {
		t.Fatalf("full replay carried %d points, want 2", points)
	}
}

func TestBatchValidation(t *testing.T) {
	s := stubServer(Config{Workers: 1}, traceRun(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{}`,
		`{"sweep":"no-such-sweep"}`,
		`{"sweep":"figure8","points":[{"profile":"usr_1","system":{}}]}`,
		`{"points":[{"profile":"no-such-workload","system":{}}]}`,
		`{"points":[{"profile":"usr_1","system":{"coding":"bogus"}}]}`,
		`{"stream":"telepathy","points":[{"profile":"usr_1","system":{}}]}`,
		`{"requests":-5,"points":[{"profile":"usr_1","system":{}}]}`,
	} {
		resp := postBatch(t, ts, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestBatchJobCapSheds: submissions beyond the active-job cap bounce with
// 429 and a Retry-After hint, like the single-run shed gate.
func TestBatchJobCapSheds(t *testing.T) {
	release := make(chan struct{})
	s := stubServer(Config{Workers: 1, RetryAfter: 2 * time.Second}, blockingRun(release, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	one := `{"stream":"none","points":[{"profile":"usr_1","system":{}}]}`
	for i := 0; i < 8; i++ { // the farm's default MaxJobs
		resp := postBatch(t, ts, one)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postBatch(t, ts, one)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
}

// TestStatzCounters: /statz carries per-endpoint request totals, farm
// gauges, and result-store hit/miss counters usable for CI assertions.
func TestStatzCounters(t *testing.T) {
	s := stubServer(Config{Workers: 2}, traceRun(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statz := func() Statz {
		resp, err := ts.Client().Get(ts.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var z Statz
		if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
			t.Fatal(err)
		}
		return z
	}

	if z := statz(); z.Endpoints["statz"] != 1 || z.Endpoints["run"] != 0 {
		t.Fatalf("fresh statz: %+v", z.Endpoints)
	}

	// One cold run, one identical (cached) rerun.
	for i := 0; i < 2; i++ {
		resp, _, err := postRun(ts, runBody(t, ""))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d", resp.StatusCode)
		}
	}
	resp := postBatch(t, ts, twoPoints)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	z := statz()
	if z.Endpoints["run"] != 2 || z.Endpoints["batch"] != 1 || z.Endpoints["statz"] != 2 {
		t.Errorf("endpoint counters %+v", z.Endpoints)
	}
	if z.Jobs.ActiveJobs != 0 || z.Jobs.QueuedPoints != 0 {
		t.Errorf("job gauges %+v after everything finished", z.Jobs)
	}
	// 2 distinct points computed (the single run's proj_3/Baseline is also
	// the batch's second point), 2 hits: the rerun and that shared point.
	if z.Results.Misses != 2 || z.Results.Hits != 2 {
		t.Errorf("result cache hits=%d misses=%d, want 2/2", z.Results.Hits, z.Results.Misses)
	}
	if z.Server.Completed != 2 {
		t.Errorf("server stats %+v", z.Server)
	}
	// Runtime gauges are sampled live: a serving process has a heap and at
	// least this handler's goroutine.
	if z.Runtime.HeapAllocBytes == 0 || z.Runtime.Goroutines == 0 {
		t.Errorf("runtime gauges %+v", z.Runtime)
	}
}

// TestFigure8BatchWarmsSingleRuns: a point computed by the figure8 named
// sweep is a result-store hit for /v1/run. The sweep builds idaflash.IDA(e)
// with Coding and Scheduler empty, the run endpoint spells both defaults
// out; the key must treat the two as the one simulation they are.
func TestFigure8BatchWarmsSingleRuns(t *testing.T) {
	var runs atomic.Int64
	s := stubServer(Config{Workers: 2}, traceRun(&runs))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postBatch(t, ts, `{"sweep":"figure8","stream":"ndjson"}`)
	evs := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if done := evs[len(evs)-1].Done; done == nil || done.State != farm.StateDone || done.Completed != 110 {
		t.Fatalf("figure8 batch ended with %+v", evs[len(evs)-1])
	}
	swept := runs.Load()

	sys, err := buildSystem(SystemSpec{IDA: true, ErrorRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := idaflash.ProfileByName("usr_1", s.runner.Options().Requests)
	if err != nil {
		t.Fatal(err)
	}
	kRun, err := experiments.Key(profile, sys)
	if err != nil {
		t.Fatal(err)
	}
	kSweep, err := experiments.Key(profile, idaflash.IDA(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if kRun != kSweep {
		t.Fatalf("server-built system keys apart from the sweep's:\n%s\n%s", kRun, kSweep)
	}

	for _, body := range []string{
		`{"profile":"usr_1","system":{"ida":true,"error_rate":0.2}}`,
		`{"profile":"proj_3","system":{}}`,
	} {
		rresp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr RunResponse
		err = json.NewDecoder(rresp.Body).Decode(&rr)
		rresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Cached {
			t.Errorf("/v1/run %s after a figure8 batch: cached=false", body)
		}
	}
	if got := runs.Load(); got != swept {
		t.Errorf("single runs re-simulated %d swept points", got-swept)
	}
}

// TestRunCachedFlag: the second identical single run reports cached=true
// with an identical results payload.
func TestRunCachedFlag(t *testing.T) {
	var runs atomic.Int64
	s := stubServer(Config{Workers: 1}, traceRun(&runs))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() RunResponse {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", runBody(t, ""))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	cold := get()
	warm := get()
	if cold.Cached || !warm.Cached {
		t.Errorf("cached flags: cold=%v warm=%v", cold.Cached, warm.Cached)
	}
	if runs.Load() != 1 {
		t.Errorf("simulation ran %d times", runs.Load())
	}
	cb, _ := json.Marshal(cold.Results)
	wb, _ := json.Marshal(warm.Results)
	if !bytes.Equal(cb, wb) {
		t.Errorf("cached run results differ:\n%s\n%s", cb, wb)
	}
}
