// Package server exposes the experiment runner as a hardened HTTP JSON
// service: a bounded worker pool with admission control that sheds load
// (429 + Retry-After) when the queue cap is hit, per-request deadlines
// merged with client disconnects, panic-recovery middleware over the
// already-contained simulation entry points, health and readiness probes,
// and a graceful drain for SIGTERM — in-flight runs get a drain deadline,
// queued runs are rejected, and /readyz flips to 503 the moment the drain
// begins so load balancers stop routing here.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/farm"
	"idaflash/internal/results"
	"idaflash/internal/workload"
)

// Config tunes the service.
type Config struct {
	// Workers caps concurrently-executing simulations; defaults to
	// GOMAXPROCS. Requests beyond it queue (up to QueueDepth) rather than
	// run.
	Workers int
	// QueueDepth caps requests admitted but not yet executing; beyond
	// Workers+QueueDepth the service sheds with 429. Defaults to
	// 2*Workers.
	QueueDepth int
	// DefaultTimeout bounds a run that names no timeout of its own;
	// defaults to 2 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout a client may ask for;
	// defaults to 10 minutes.
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with a 429; defaults to 1s.
	RetryAfter time.Duration
	// Requests is the default per-trace request budget; zero uses
	// experiments.DefaultRequests.
	Requests int
	// Log receives one line per completed request; nil discards.
	Log *log.Logger
	// Journal, when set, makes batch jobs durable: submissions write a
	// per-job write-ahead log under the store root, and RecoverJobs resumes
	// unfinished jobs (same ID, contiguous event log) after a restart.
	Journal *farm.Journal
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Requests == 0 {
		c.Requests = experiments.DefaultRequests
	}
	return c
}

// Stats are the service's lifetime counters, the server section of /statz.
type Stats struct {
	Accepted  uint64 `json:"accepted"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Panics    uint64 `json:"panics"`
	InFlight  int64  `json:"in_flight"`
	Draining  bool   `json:"draining"`
}

// Server is the HTTP service state. Build with New, mount Handler on an
// http.Server, and call BeginDrain/Drain on shutdown.
type Server struct {
	cfg Config
	// run executes one simulation; idaflash.RunWorkloadContext in
	// production, replaced by tests that need controllable latency. The
	// worker gate caps how many run at once.
	run func(context.Context, idaflash.Profile, idaflash.System) (idaflash.Results, error)
	// results memoizes canonical result payloads by experiments.Key, the
	// service's only run memo; with a persistent blob tier attached
	// (ResultStore().SetBlobs) identical points are served byte-identical
	// across restarts.
	results *results.Store
	// farm owns batch jobs, sharding their points across the same workers
	// channel the single-run endpoint uses.
	farm *farm.Manager

	// Two-level admission. tokens has Workers+QueueDepth slots and is
	// acquired without blocking: failure means the queue cap is hit and
	// the request is shed with 429. workers has Workers slots and is
	// acquired blocking (with the request context and drain signal), so
	// token holders beyond the worker count are the bounded queue.
	tokens  chan struct{}
	workers chan struct{}

	// Drain state. draining flips once; drainCh closes at the same
	// moment so queued waiters wake. inflight tracks admitted requests;
	// runsCtx is the parent of every run's context, cancelled when the
	// drain deadline expires.
	draining   atomic.Bool
	drainOnce  sync.Once
	drainCh    chan struct{}
	inflight   sync.WaitGroup
	runsCtx    context.Context
	cancelRuns context.CancelFunc

	accepted, shed, completed, failed, cancelled, panics atomic.Uint64
	inflightN                                            atomic.Int64
	endpoints                                            endpointCounters
}

// endpointCounters are per-endpoint request totals for /statz. Go 1.22's
// mux does not expose the matched pattern on the request, so each handler
// bumps its own counter.
type endpointCounters struct {
	run, batch, jobs, profiles, statz, healthz, readyz atomic.Uint64
}

func (e *endpointCounters) snapshot() map[string]uint64 {
	return map[string]uint64{
		"run":      e.run.Load(),
		"batch":    e.batch.Load(),
		"jobs":     e.jobs.Load(),
		"profiles": e.profiles.Load(),
		"statz":    e.statz.Load(),
		"healthz":  e.healthz.Load(),
		"readyz":   e.readyz.Load(),
	}
}

// counted wraps a handler with its endpoint counter.
func counted(c *atomic.Uint64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.Add(1)
		h(w, r)
	}
}

// New builds a server with a fresh result store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		run:     idaflash.RunWorkloadContext,
		tokens:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workers: make(chan struct{}, cfg.Workers),
		drainCh: make(chan struct{}),
		results: results.NewStore(0),
	}
	s.runsCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.farm = farm.New(farm.Config{
		Slots:    s.workers,
		Run:      s.runStored,
		Parent:   s.runsCtx,
		Classify: classifyRunError,
		Journal:  cfg.Journal,
	})
	return s
}

// RecoverJobs resumes unfinished journaled jobs and returns how many it
// found. Call once at startup, after the result store's blob tier is
// attached (so resumed points hit warm results) and before serving traffic.
// Each recovered job counts as in-flight work for Drain, like a freshly
// submitted batch.
func (s *Server) RecoverJobs() int {
	jobs := s.farm.Recover()
	for _, job := range jobs {
		job := job
		s.inflight.Add(1)
		go func() {
			<-job.Done()
			s.inflight.Done()
		}()
		if s.cfg.Log != nil {
			st := job.Status(false)
			s.cfg.Log.Printf("recovered job %s: %d/%d points already recorded",
				job.ID, st.NextEvent, st.Total)
		}
	}
	return len(jobs)
}

// ResultStore returns the server's result cache, so startup code can attach
// the persistent blob tier of the shared -store-dir root.
func (s *Server) ResultStore() *results.Store { return s.results }

// classifyRunError maps a non-context run error onto its wire kind, the
// same split writeRunError makes for single runs.
func classifyRunError(err error) string {
	if idaflash.IsInvariantError(err) {
		return "invariant"
	}
	return "internal"
}

// runStored executes one point through the result store: the canonical memo
// key addresses both the in-memory cache and the disk blob tier, concurrent
// identical points singleflight, and a hit returns the stored payload
// byte-identical to its cold computation. It is also the farm's per-point
// run function.
func (s *Server) runStored(ctx context.Context, pt experiments.Point) (json.RawMessage, bool, error) {
	key, err := experiments.Key(pt.Profile, pt.System)
	if err != nil {
		return nil, false, err
	}
	return s.results.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		res, err := s.run(ctx, pt.Profile, pt.System)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
}

// Handler returns the service mux wrapped in the panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", counted(&s.endpoints.run, s.handleRun))
	mux.HandleFunc("POST /v1/batch", counted(&s.endpoints.batch, s.handleBatch))
	mux.HandleFunc("GET /v1/jobs/{id}", counted(&s.endpoints.jobs, s.handleJob))
	mux.HandleFunc("GET /v1/profiles", counted(&s.endpoints.profiles, s.handleProfiles))
	mux.HandleFunc("GET /statz", counted(&s.endpoints.statz, s.handleStatz))
	mux.HandleFunc("GET /healthz", counted(&s.endpoints.healthz, s.handleHealthz))
	mux.HandleFunc("GET /readyz", counted(&s.endpoints.readyz, s.handleReadyz))
	return s.recoverPanics(mux)
}

// BeginDrain flips the server into draining mode: /readyz starts answering
// 503, new and queued runs are rejected, in-flight runs continue. Safe to
// call more than once.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Drain waits for the in-flight runs to finish. When ctx expires first, the
// remaining runs are cancelled (they stop within the engine's polling
// bounds) and Drain waits for them to unwind before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelRuns()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:  s.accepted.Load(),
		Shed:      s.shed.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Cancelled: s.cancelled.Load(),
		Panics:    s.panics.Load(),
		InFlight:  s.inflightN.Load(),
		Draining:  s.draining.Load(),
	}
}

// RunRequest is the POST /v1/run body.
type RunRequest struct {
	// Profile names a paper or extra workload profile (GET /v1/profiles).
	Profile string `json:"profile"`
	// Requests overrides the per-trace request budget; zero uses the
	// server default.
	Requests int `json:"requests,omitempty"`
	// System selects the simulated device configuration.
	System SystemSpec `json:"system"`
	// TimeoutMs bounds the run; zero uses the server default, and values
	// above the server maximum are clamped to it.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SystemSpec is the wire form of the device configuration knobs the service
// exposes.
type SystemSpec struct {
	IDA         bool    `json:"ida,omitempty"`
	ErrorRate   float64 `json:"error_rate,omitempty"`
	BitsPerCell int     `json:"bits_per_cell,omitempty"`
	// Coding selects the cell coding scheme by registry name ("ida",
	// "randio", "ilwc"); empty means the default ("ida").
	Coding    string `json:"coding,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Devices   int    `json:"devices,omitempty"`
	StripeKB  int    `json:"stripe_kb,omitempty"`
	Parity    bool   `json:"parity,omitempty"`
}

// RunResponse is the POST /v1/run success body.
type RunResponse struct {
	Profile   string `json:"profile"`
	System    string `json:"system"`
	ElapsedMs int64  `json:"elapsed_ms"`
	// Cached reports the run was served from the result store without
	// executing a simulation.
	Cached  bool             `json:"cached"`
	Results idaflash.Results `json:"results"`
}

// errorBody is every non-2xx JSON payload. Kind is machine-matchable:
// "invalid", "shed", "draining", "cancelled", "deadline", "invariant",
// or "internal".
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Kind: kind})
}

// recoverPanics is the outermost middleware: a handler panic (the exported
// simulation API never panics, so this guards the service's own code)
// becomes a 500 instead of a dead process.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				if s.cfg.Log != nil {
					s.cfg.Log.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, v)
				}
				// Best-effort: the handler may have written already.
				writeError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness for new work: 503 once draining begins, so
// a load balancer or orchestrator routes around the instance while its
// in-flight runs finish. A degraded result-store disk is reported as a
// detail field but stays 200 — the server serves traffic uncached rather
// than failing runs, and flipping readiness would turn a sick disk into an
// outage.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "draining")
		return
	}
	body := map[string]string{"status": "ready"}
	if h := s.results.Health(); h != nil {
		body["store"] = "ok"
		if h.Degraded {
			body["store"] = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	budget := s.cfg.Requests
	var names []string
	for _, p := range workload.PaperProfiles(budget) {
		names = append(names, p.Name)
	}
	for _, p := range workload.ExtraProfiles(budget) {
		names = append(names, p.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{"profiles": names})
}

// parse validates the request body into a runnable (profile, system,
// timeout): a nil error means BuildConfig accepts the pair, so a
// configuration the simulator would reject is a 400 before the request
// takes a worker slot, not a failed run.
func (s *Server) parse(r *http.Request) (idaflash.Profile, idaflash.System, time.Duration, error) {
	var req RunRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return idaflash.Profile{}, idaflash.System{}, 0, fmt.Errorf("decoding body: %w", err)
	}
	budget := req.Requests
	if budget == 0 {
		budget = s.cfg.Requests
	}
	if budget < 0 {
		return idaflash.Profile{}, idaflash.System{}, 0, fmt.Errorf("requests %d must be non-negative", budget)
	}
	profile, err := idaflash.ProfileByName(req.Profile, budget)
	if err != nil {
		return idaflash.Profile{}, idaflash.System{}, 0, err
	}
	sys, err := buildSystem(req.System)
	if err != nil {
		return idaflash.Profile{}, idaflash.System{}, 0, err
	}
	if _, _, err := idaflash.BuildConfig(profile, sys); err != nil {
		return idaflash.Profile{}, idaflash.System{}, 0, err
	}
	return profile, sys, s.clampTimeout(req.TimeoutMs), nil
}

// buildSystem turns the wire spec into a validated device configuration;
// shared by the single-run and batch endpoints.
func buildSystem(spec SystemSpec) (idaflash.System, error) {
	sched, err := idaflash.ParseSchedulerPolicy(spec.Scheduler)
	if err != nil {
		return idaflash.System{}, err
	}
	coding, err := idaflash.ParseCoding(spec.Coding)
	if err != nil {
		return idaflash.System{}, err
	}
	sys := idaflash.Baseline()
	if spec.IDA {
		sys = idaflash.IDA(spec.ErrorRate)
	}
	sys.Coding = coding
	if coding != idaflash.CodingIDA {
		sys.Name += "-" + coding
	}
	sys.BitsPerCell = spec.BitsPerCell
	sys.Scheduler = sched
	sys.Devices = spec.Devices
	sys.StripeKB = spec.StripeKB
	sys.Parity = spec.Parity
	return sys, nil
}

// clampTimeout applies the server's default and ceiling to a request's
// timeout field.
func (s *Server) clampTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// handleRun is the work endpoint: admission, deadline, execution, and the
// error-to-status mapping.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	profile, sys, timeout, err := s.parse(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err.Error())
		return
	}

	// Level 1: the shed gate. No token free means Workers running plus
	// QueueDepth queued; adding more would only grow latency unboundedly,
	// so the request is refused now, cheaply, with a retry hint.
	select {
	case s.tokens <- struct{}{}:
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "shed", "queue full, retry later")
		return
	}
	defer func() { <-s.tokens }()
	s.accepted.Add(1)
	s.inflight.Add(1)
	s.inflightN.Add(1)
	defer func() {
		s.inflightN.Add(-1)
		s.inflight.Done()
	}()

	// The run context: client disconnect or per-request deadline, plus
	// the server-wide drain-deadline cancellation.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stop := context.AfterFunc(s.runsCtx, cancel)
	defer stop()

	// Level 2: the worker gate. Waiting here is the bounded queue; the
	// wait ends early when the client gives up or the drain begins
	// (queued runs are rejected — only already-executing runs get the
	// drain deadline).
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		s.cancelled.Add(1)
		s.writeRunError(w, ctx.Err())
		return
	case <-s.drainCh:
		s.cancelled.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	start := time.Now()
	payload, cached, err := func() (json.RawMessage, bool, error) {
		// The worker slot is released on every exit, including a panic
		// unwinding out of the run seam (the exported simulation API never
		// panics, but a leaked slot would wedge the pool forever, so the
		// release must not depend on that contract). A panic is counted as
		// a failure here — keeping accepted = completed+cancelled+failed —
		// and re-raised for the recovery middleware to report.
		defer func() {
			<-s.workers
			if v := recover(); v != nil {
				s.failed.Add(1)
				panic(v)
			}
		}()
		return s.runStored(ctx, experiments.Point{Profile: profile, System: sys})
	}()

	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.cancelled.Add(1)
		} else {
			s.failed.Add(1)
		}
		if s.cfg.Log != nil {
			s.cfg.Log.Printf("run %s/%s failed after %v: %v", profile.Name, sys.Name, time.Since(start).Round(time.Millisecond), err)
		}
		s.writeRunError(w, err)
		return
	}
	var res idaflash.Results
	if err := json.Unmarshal(payload, &res); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusInternalServerError, "internal",
			fmt.Sprintf("decoding stored result: %v", err))
		return
	}
	s.completed.Add(1)
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("ran %s/%s in %v (cached=%v)", profile.Name, sys.Name,
			time.Since(start).Round(time.Millisecond), cached)
	}
	writeJSON(w, http.StatusOK, RunResponse{
		Profile:   profile.Name,
		System:    sys.Name,
		ElapsedMs: farm.ElapsedMs(start),
		Cached:    cached,
		Results:   res,
	})
}

// writeRunError maps a run error onto a status and kind: deadline → 504,
// cancellation → 503 (the client is gone, or the drain deadline hit),
// contained invariant violation → 500 with the simulation position, any
// other failure → 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline", "run exceeded its deadline")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "cancelled", "run cancelled")
	case idaflash.IsInvariantError(err):
		writeError(w, http.StatusInternalServerError, "invariant", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}
