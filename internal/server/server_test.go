package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/sim"
)

// stubServer builds a server whose run seam is replaced: the stub blocks
// until its context ends or release closes, so tests control run latency
// without simulating anything.
func stubServer(cfg Config, run func(context.Context, idaflash.Profile, idaflash.System) (idaflash.Results, error)) *Server {
	s := New(cfg)
	s.run = run
	return s
}

// blockingRun returns a run stub that parks until release closes (or the
// context ends first), counting the runs started.
func blockingRun(release <-chan struct{}, started *atomic.Int64) func(context.Context, idaflash.Profile, idaflash.System) (idaflash.Results, error) {
	return func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		if started != nil {
			started.Add(1)
		}
		select {
		case <-release:
			return idaflash.Results{Trace: p.Name}, nil
		case <-ctx.Done():
			return idaflash.Results{Trace: p.Name}, ctx.Err()
		}
	}
}

// rejectedRun returns a run stub for requests the server must refuse
// before they run: a call fails the test at once, where a parked stub would
// hang until the run timeout.
func rejectedRun(t *testing.T) func(context.Context, idaflash.Profile, idaflash.System) (idaflash.Results, error) {
	return func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		t.Errorf("a request that should be rejected ran: profile %q, system %+v", p.Name, sys)
		return idaflash.Results{}, errors.New("run stub: request should have been rejected")
	}
}

func runBody(t *testing.T, extra string) *bytes.Reader {
	t.Helper()
	return bytes.NewReader([]byte(`{"profile":"proj_3"` + extra + `}`))
}

func postRun(ts *httptest.Server, body io.Reader) (*http.Response, errorBody, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", body)
	if err != nil {
		return nil, errorBody{}, err
	}
	defer resp.Body.Close()
	var eb errorBody
	b, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(b, &eb)
	return resp, eb, nil
}

func TestRunEndpointSuccess(t *testing.T) {
	s := stubServer(Config{Workers: 2}, func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		return idaflash.Results{Trace: p.Name, ReadRequests: 42}, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _, err := postRun(ts, runBody(t, `,"system":{"ida":true,"error_rate":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rr RunResponse
	resp2, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", runBody(t, `,"system":{"ida":true,"error_rate":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Profile != "proj_3" || rr.System != "IDA-E20" || rr.Results.ReadRequests != 42 {
		t.Errorf("response = %+v", rr)
	}
	if got := s.Stats().Completed; got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

// TestRunEndpointCodingSelection checks the "coding" request field reaches
// the run as a validated System.Coding and shows up in the system label.
func TestRunEndpointCodingSelection(t *testing.T) {
	var gotSys idaflash.System
	s := stubServer(Config{Workers: 1}, func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		gotSys = sys
		return idaflash.Results{Trace: p.Name, Coding: sys.Coding}, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		runBody(t, `,"system":{"ida":true,"error_rate":0.2,"coding":"randio"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if gotSys.Coding != idaflash.CodingRandIO {
		t.Errorf("run saw Coding %q, want %q", gotSys.Coding, idaflash.CodingRandIO)
	}
	if rr.System != "IDA-E20-randio" || rr.Results.Coding != idaflash.CodingRandIO {
		t.Errorf("response = %+v", rr)
	}
}

func TestRunEndpointRejectsBadRequests(t *testing.T) {
	s := stubServer(Config{Workers: 1}, rejectedRun(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"profile":"no-such-workload"}`,
		`{"profile":"proj_3","unknown_field":1}`,
		`{"profile":"proj_3","requests":-5}`,
		`{"profile":"proj_3","system":{"scheduler":"bogus"}}`,
		`{"profile":"proj_3","system":{"coding":"gray"}}`,
		`{"profile":"proj_3","system":{"bits_per_cell":7}}`,
		`{"profile":"proj_3","system":{"parity":true,"devices":2}}`,
		`{"profile":"proj_3","system":{"stripe_kb":-1,"devices":2}}`,
		`{"profile":"proj_3","system":{"devices":-4}}`,
		`not json`,
		`{"profile":"usr_1"} {"profile":"x"}`,
		`{"profile":"usr_1"}garbage`,
		`{"profile":"usr_1"}}`,
	} {
		resp, eb, err := postRun(ts, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Kind != "invalid" {
			t.Errorf("body %q: status %d kind %q, want 400 invalid", body, resp.StatusCode, eb.Kind)
		}
	}
}

// TestShedWhenSaturated fills the worker and queue slots with parked runs,
// then expects the next request to bounce with 429 and a Retry-After hint
// instead of queueing without bound.
func TestShedWhenSaturated(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int64
	s := stubServer(Config{Workers: 1, QueueDepth: 1}, blockingRun(release, &started))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the single worker slot and the single queue slot.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _, err := postRun(ts, runBody(t, ""))
			if err != nil {
				results <- -1
				return
			}
			results <- resp.StatusCode
		}()
	}
	// Wait until one run executes and the other holds the queue token.
	deadline := time.Now().Add(2 * time.Second)
	for started.Load() < 1 || s.Stats().InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: started=%d stats=%+v", started.Load(), s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	resp, eb, err := postRun(ts, runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || eb.Kind != "shed" {
		t.Fatalf("status %d kind %q, want 429 shed", resp.StatusCode, eb.Kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if s.Stats().Shed != 1 {
		t.Errorf("shed counter = %d", s.Stats().Shed)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("parked request %d finished with %d", i, code)
		}
	}
}

// TestClientDisconnectCancelsRun: when the client goes away, the run's
// context must end so the simulation stops burning a worker slot.
func TestClientDisconnectCancelsRun(t *testing.T) {
	runCancelled := make(chan struct{})
	s := stubServer(Config{Workers: 1}, func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		<-ctx.Done()
		close(runCancelled)
		return idaflash.Results{}, ctx.Err()
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the stub
	cancel()
	select {
	case <-runCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("run context never cancelled after client disconnect")
	}
	if err := <-errCh; err == nil {
		t.Error("client saw a response despite cancelling")
	}
}

// TestDeadlineExceededMapsTo504: a run that outlives its requested deadline
// comes back as 504 with kind "deadline".
func TestDeadlineExceededMapsTo504(t *testing.T) {
	s := stubServer(Config{Workers: 1}, blockingRun(nil, nil)) // parks until ctx ends
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, eb, err := postRun(ts, runBody(t, `,"timeout_ms":30`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Kind != "deadline" {
		t.Fatalf("status %d kind %q, want 504 deadline", resp.StatusCode, eb.Kind)
	}
	if s.Stats().Cancelled != 1 {
		t.Errorf("cancelled counter = %d", s.Stats().Cancelled)
	}
}

// TestInvariantErrorMapsTo500: a contained simulation invariant violation is
// a 500 with kind "invariant", not a dead process.
func TestInvariantErrorMapsTo500(t *testing.T) {
	s := stubServer(Config{Workers: 1}, func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		return idaflash.Results{}, fmt.Errorf("run failed: %w", &sim.InvariantError{Value: "injected", At: 42})
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, eb, err := postRun(ts, runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || eb.Kind != "invariant" {
		t.Fatalf("status %d kind %q, want 500 invariant", resp.StatusCode, eb.Kind)
	}
	if s.Stats().Failed != 1 {
		t.Errorf("failed counter = %d", s.Stats().Failed)
	}
}

// TestHandlerPanicRecovered: a panic in the service's own handler stack
// becomes a 500, and the process (and the next request) survives.
func TestHandlerPanicRecovered(t *testing.T) {
	s := stubServer(Config{Workers: 1}, func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		panic("handler-side bug")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, eb, err := postRun(ts, runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || eb.Kind != "internal" {
		t.Fatalf("status %d kind %q, want 500 internal", resp.StatusCode, eb.Kind)
	}
	if s.Stats().Panics != 1 {
		t.Errorf("panics counter = %d", s.Stats().Panics)
	}
	// The pool token was returned: a healthy request still runs.
	s.run = func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		return idaflash.Results{}, nil
	}
	resp2, _, err := postRun(ts, runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("request after panic: status %d", resp2.StatusCode)
	}
	// The panicking run counts as a failure: accepted = completed +
	// cancelled + failed.
	if st := s.Stats(); st.Accepted != 2 || st.Completed != 1 || st.Failed != 1 {
		t.Errorf("server stats %+v, want 2 accepted, 1 completed, 1 failed", st)
	}
}

// TestReadyzFlipsOnDrain: /readyz answers 200 while serving, 503 the moment
// the drain begins; /healthz stays 200 throughout; new runs are rejected
// with kind "draining".
func TestReadyzFlipsOnDrain(t *testing.T) {
	s := stubServer(Config{Workers: 1}, blockingRun(nil, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", code)
	}
	s.BeginDrain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}
	resp, eb, err := postRun(ts, runBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Kind != "draining" {
		t.Errorf("run during drain: status %d kind %q, want 503 draining", resp.StatusCode, eb.Kind)
	}
}

// TestDrainRejectsQueuedAndFinishesInflight: the request executing when the
// drain begins completes normally; the request waiting for a worker slot is
// rejected with 503 draining.
func TestDrainRejectsQueuedAndFinishesInflight(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int64
	s := stubServer(Config{Workers: 1, QueueDepth: 1}, blockingRun(release, &started))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type outcome struct {
		code int
		kind string
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, eb, err := postRun(ts, runBody(t, ""))
			if err != nil {
				results <- outcome{-1, err.Error()}
				return
			}
			results <- outcome{resp.StatusCode, eb.Kind}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for started.Load() < 1 || s.Stats().InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("never saturated: stats=%+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	// The queued request wakes on the drain signal with 503; the executing one
	// still parks on release.
	first := <-results
	if first.code != http.StatusServiceUnavailable || first.kind != "draining" {
		t.Errorf("queued request: %+v, want 503 draining", first)
	}
	close(release)
	second := <-results
	if second.code != http.StatusOK {
		t.Errorf("in-flight request: %+v, want 200", second)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("Drain = %v", err)
	}
}

// TestDrainDeadlineCancelsInflight: when the drain context expires, the
// remaining runs are cancelled (their contexts end) and Drain returns after
// they unwind.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	var started atomic.Int64
	s := stubServer(Config{Workers: 1}, blockingRun(nil, &started)) // parks until ctx ends
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan outcome1, 1)
	go func() {
		resp, eb, err := postRun(ts, runBody(t, ""))
		if err != nil {
			done <- outcome1{-1, err.Error()}
			return
		}
		done <- outcome1{resp.StatusCode, eb.Kind}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for started.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(drainCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	out := <-done
	if out.code != http.StatusServiceUnavailable || out.kind != "cancelled" {
		t.Errorf("cancelled run: %+v, want 503 cancelled", out)
	}
}

type outcome1 struct {
	code int
	kind string
}

// TestProfilesAndStatsEndpoints sanity-checks the read-only endpoints.
func TestProfilesAndStatsEndpoints(t *testing.T) {
	s := stubServer(Config{Workers: 1}, blockingRun(nil, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var profiles struct {
		Profiles []string `json:"profiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles.Profiles) < 11 {
		t.Errorf("only %d profiles listed", len(profiles.Profiles))
	}
	resp2, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var z Statz
	if err := json.NewDecoder(resp2.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	if st := z.Server; st.Accepted != 0 || st.Draining {
		t.Errorf("fresh stats = %+v", st)
	}
}

// TestServerSoak hammers the service concurrently — successes, shed
// requests, one cancelling client, one deadline-bound run — and then checks
// the books balance: every accepted request reaches a terminal counter and
// nothing is left in flight. Run with -race in CI.
func TestServerSoak(t *testing.T) {
	var slow atomic.Bool
	s := stubServer(Config{Workers: 2, QueueDepth: 2},
		func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
			if slow.Load() {
				select {
				case <-ctx.Done():
					return idaflash.Results{}, ctx.Err()
				case <-time.After(5 * time.Millisecond):
				}
			}
			return idaflash.Results{Trace: p.Name}, nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var ok, shed, failed atomic.Int64
	for i := 0; i < 40; i++ {
		if i == 20 {
			slow.Store(true) // second half: runs park long enough to queue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch {
			case i%10 == 7: // a client that gives up immediately
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", runBody(t, ""))
				go cancel()
				resp, err := ts.Client().Do(req)
				if err == nil {
					resp.Body.Close()
				}
			case i%10 == 3: // a run bounded by a tiny deadline
				resp, _, err := postRun(ts, runBody(t, `,"timeout_ms":1`))
				if err == nil && resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK &&
					resp.StatusCode != http.StatusTooManyRequests {
					failed.Add(1)
				}
			default:
				resp, _, err := postRun(ts, runBody(t, ""))
				if err != nil {
					failed.Add(1)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// cancelled/deadline under load: accounted below
				default:
					failed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Errorf("%d requests saw unexpected statuses", failed.Load())
	}
	if ok.Load() == 0 {
		t.Error("no request succeeded during the soak")
	}
	st := s.Stats()
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after the soak", st.InFlight)
	}
	if got := st.Completed + st.Cancelled + st.Failed; got != st.Accepted {
		t.Errorf("accounting leak: accepted=%d but completed+cancelled+failed=%d (%+v)", st.Accepted, got, st)
	}
}

// A stored point is answered from the result store without a worker slot:
// with both workers held by blocked runs, a request for it gets 200 with
// cached set at once, where waiting for a slot would run into its deadline.
func TestStoreHitNeedsNoWorker(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int64
	blocked := blockingRun(release, &started)
	s := stubServer(Config{Workers: 2, QueueDepth: 2}, func(ctx context.Context, p idaflash.Profile, sys idaflash.System) (idaflash.Results, error) {
		if p.Name == "proj_3" {
			return idaflash.Results{Trace: p.Name, ReadRequests: 7}, nil
		}
		return blocked(ctx, p, sys)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, eb, err := postRun(ts, runBody(t, "")); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("storing the point: %v %+v", err, eb)
	}
	codes := make(chan int, 2)
	for _, name := range []string{"hm_1", "usr_1"} {
		go func(name string) {
			resp, _, err := postRun(ts, strings.NewReader(`{"profile":"`+name+`"}`))
			if err != nil {
				codes <- -1
				return
			}
			codes <- resp.StatusCode
		}(name)
	}
	deadline := time.Now().Add(2 * time.Second)
	for started.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the workers never filled: started=%d", started.Load())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", runBody(t, `,"timeout_ms":1000`))
	if err != nil {
		t.Fatal(err)
	}
	var rr RunResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.Cached || rr.Results.ReadRequests != 7 {
		t.Errorf("stored point with the workers busy: status %d, cached %t, %d reads; want 200, cached, 7 reads",
			resp.StatusCode, rr.Cached, rr.Results.ReadRequests)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("blocked run %d finished with %d", i, code)
		}
	}
}
