package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/farm"
	"idaflash/internal/results"
	"idaflash/internal/results/errfs"
	"idaflash/internal/workload"
)

// crashJournal authors the journal a SIGKILLed server leaves behind: a job
// spec plus the completions that were recorded before the crash, no
// terminal record.
func crashJournal(t *testing.T, dir string, id string, points []experiments.Point, done []farm.PointResult) *farm.Journal {
	t.Helper()
	jn, err := farm.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := jn.Create(id, farm.JobSpec{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range done {
		l.Point(pr)
	}
	l.Close()
	return jn
}

func specPoints(n int) []experiments.Point {
	pts := make([]experiments.Point, n)
	for i := range pts {
		pts[i] = experiments.Point{
			Profile: workload.Profile{Name: fmt.Sprintf("prof%d", i)},
			System:  idaflash.System{Name: "sys"},
		}
	}
	return pts
}

// TestServerResumesJournaledJob: a restarted server re-registers the
// crashed job under its original ID, re-runs only the unrecorded points,
// and both the poll and stream views show one contiguous event log.
func TestServerResumesJournaledJob(t *testing.T) {
	pts := specPoints(4)
	prerecorded := farm.PointResult{Index: 2, Profile: "prof2", System: "sys",
		Results: json.RawMessage(`{"trace":"prof2/sys","pre":true}`)}
	jn := crashJournal(t, t.TempDir(), "j5", pts, []farm.PointResult{prerecorded})

	var ran atomic.Int64
	s := stubServer(Config{Workers: 2, Journal: jn}, traceRun(&ran))
	if n := s.RecoverJobs(); n != 1 {
		t.Fatalf("RecoverJobs = %d, want 1", n)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The job answers under its pre-crash ID immediately, marked recovered.
	var st farm.Status
	getJSON(t, ts, "/v1/jobs/j5", &st)
	if !st.Recovered || st.Total != 4 {
		t.Fatalf("recovered status %+v", st)
	}

	deadline := time.Now().Add(5 * time.Second)
	for st.State != farm.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v1/jobs/j5", &st)
	}
	if st.Completed != 4 || st.Failed != 0 || st.NextEvent != 4 {
		t.Fatalf("final status %+v", st)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d points, want 3 (the journaled one must not re-run)", got)
	}

	// A client resuming its pre-crash stream offset gets the missing
	// events and the terminal status — no gap, and the journaled point's
	// payload replays verbatim from offset 0.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j5?watch=ndjson&from=1")
	if err != nil {
		t.Fatal(err)
	}
	evs := readNDJSON(t, resp.Body)
	resp.Body.Close()
	var pointEvents, doneEvents int
	for _, ev := range evs {
		if ev.Point != nil {
			pointEvents++
		}
		if ev.Done != nil {
			doneEvents++
		}
	}
	if pointEvents != 3 || doneEvents != 1 {
		t.Fatalf("resume from=1: %d point events, %d done events", pointEvents, doneEvents)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/j5?watch=ndjson&from=0")
	if err != nil {
		t.Fatal(err)
	}
	all := readNDJSON(t, resp.Body)
	resp.Body.Close()
	// Stream framing: one job header, four points, one done.
	if len(all) != 6 || all[0].Job == nil || all[1].Point == nil {
		t.Fatalf("replay from 0: %d events, first %+v", len(all), all[0])
	}
	if string(all[1].Point.Results) != string(prerecorded.Results) {
		t.Fatalf("journaled payload not replayed verbatim: %s", all[1].Point.Results)
	}

	// /statz surfaces the recovery.
	var z Statz
	getJSON(t, ts, "/statz", &z)
	if z.Jobs.Recovered != 1 {
		t.Errorf("statz jobs.recovered = %d", z.Jobs.Recovered)
	}

	// The finished job journaled its terminal state: nothing to recover on
	// the next restart.
	recs, _ := jn.Scan()
	if len(recs) != 0 {
		t.Errorf("finished job still recoverable after restart: %d", len(recs))
	}
}

// TestServerRecoveredJobCountsForDrain: Drain waits for a recovered job the
// same way it waits for a submitted one.
func TestServerRecoveredJobCountsForDrain(t *testing.T) {
	jn := crashJournal(t, t.TempDir(), "j1", specPoints(2), nil)
	var ran atomic.Int64
	s := stubServer(Config{Workers: 2, Journal: jn}, traceRun(&ran))
	if n := s.RecoverJobs(); n != 1 {
		t.Fatal("no job recovered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if ran.Load() != 2 {
		t.Errorf("drain returned before the recovered job ran: %d", ran.Load())
	}
}

// TestReadyzReportsDegradedStore: a persistently failing disk flips the
// store memory-only; /readyz stays 200 (the server still serves) but
// carries the degraded detail, and /statz exposes the counters.
func TestReadyzReportsDegradedStore(t *testing.T) {
	fs := errfs.New(nil)
	fs.FailNext(errfs.OpRead, 1000, errfs.EIO)
	d, err := results.OpenDiskOptions(t.TempDir(), results.DiskOptions{
		FS:    fs,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := stubServer(Config{Workers: 1}, traceRun(nil))
	s.ResultStore().SetBlobs(d.Sub(".json"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body map[string]string
	getJSON(t, ts, "/readyz", &body)
	if body["store"] != "ok" {
		t.Fatalf("healthy readyz %v", body)
	}

	// The disk degrades after four operations in a row exhaust their
	// retries.
	blobs := d.Sub(".json")
	for _, key := range []string{"a", "b", "c", "d"} {
		blobs.Get(key)
	}

	getJSON(t, ts, "/readyz", &body)
	if body["status"] != "ready" || body["store"] != "degraded" {
		t.Fatalf("degraded readyz %v", body)
	}
	var z Statz
	getJSON(t, ts, "/statz", &z)
	if z.Results.Disk == nil || !z.Results.Disk.Degraded || z.Results.Disk.Errors == 0 {
		t.Fatalf("statz results.disk %+v", z.Results.Disk)
	}
}

// TestCorruptStoredResultIsLogged: a stored result blob that fails its
// check is discarded and the point runs again, and the discard reaches
// Config.Log, so an operator can see why the store missed.
func TestCorruptStoredResultIsLogged(t *testing.T) {
	var logs lockedWriter
	var runs atomic.Int64
	s := stubServer(Config{Workers: 1, Log: log.New(&logs, "", 0)}, traceRun(&runs))
	d, err := results.OpenDiskOptions(t.TempDir(), results.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.ResultStore().SetBlobs(d.Sub(idaflash.ExtResult))
	profile, err := idaflash.ProfileByName("usr_1", s.cfg.Requests)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(SystemSpec{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := experiments.Key(profile, sys)
	if err != nil {
		t.Fatal(err)
	}
	d.Sub(idaflash.ExtResult).Put(key, []byte("not a framed result"))

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, eb, err := postRun(ts, strings.NewReader(`{"profile":"usr_1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || runs.Load() != 1 {
		t.Fatalf("run over a corrupt blob: status %d (%+v), %d runs; want 200 and 1 run", resp.StatusCode, eb, runs.Load())
	}
	if got := logs.String(); !strings.Contains(got, "discarding .json blob") {
		t.Errorf("the discard did not reach Config.Log; log holds %q", got)
	}
}

// lockedWriter is a log destination a test reads while handlers write.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestReadyzOmitsStoreWhenMemoryOnly: without a disk tier there is nothing
// to degrade, and the field stays absent rather than implying health.
func TestReadyzOmitsStoreWhenMemoryOnly(t *testing.T) {
	s := stubServer(Config{Workers: 1}, traceRun(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body map[string]string
	getJSON(t, ts, "/readyz", &body)
	if _, ok := body["store"]; ok {
		t.Fatalf("memory-only readyz grew a store field: %v", body)
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
