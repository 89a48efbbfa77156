package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/farm"
	"idaflash/internal/memo"
	"idaflash/internal/results"
	"idaflash/internal/workload"
)

// maxBatchPoints bounds one job. The largest named sweep is ~110 points;
// the cap exists so a typo'd explicit list cannot enqueue unbounded work.
const maxBatchPoints = 1024

// BatchRequest is the POST /v1/batch body: one whole sweep per request,
// either a named experiment (figure8, sensitivity, cmp) or an explicit
// point list. Exactly one of Sweep and Points must be set.
type BatchRequest struct {
	// Sweep names a predefined experiment sweep (see experiments.SweepNames).
	Sweep string `json:"sweep,omitempty"`
	// Points lists explicit (profile, system) pairs.
	Points []BatchPoint `json:"points,omitempty"`
	// Requests overrides the per-trace request budget for every point.
	Requests int `json:"requests,omitempty"`
	// TimeoutMs bounds each point (not the job), from the moment a lane
	// takes it: the wait for a worker and for another caller's run of the
	// same point count, as they do for /v1/run. Zero uses the server
	// default, values above the maximum clamp to it.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Stream selects the progress transport: "sse" (default) streams
	// Server-Sent Events, "ndjson" streams one JSON object per line for
	// clients without an SSE parser, and "none" detaches immediately —
	// the response is a 202 job snapshot to poll via GET /v1/jobs/{id}.
	Stream string `json:"stream,omitempty"`
	// Detach keeps the job running if a streaming client disconnects
	// (resume via GET /v1/jobs/{id}). The default cancels the job's
	// remaining points on disconnect.
	Detach bool `json:"detach,omitempty"`
}

// BatchPoint is one explicit sweep point.
type BatchPoint struct {
	Profile string     `json:"profile"`
	System  SystemSpec `json:"system"`
}

// Statz is the GET /statz body: the service's lifetime run counters and
// every operational counter idaload and CI assert on — per endpoint, per
// farm, per cache layer, and the process runtime.
type Statz struct {
	Server    Stats              `json:"server"`
	Endpoints map[string]uint64  `json:"endpoints"`
	Jobs      farm.Gauges        `json:"jobs"`
	Results   results.Stats      `json:"results"`
	Runtime   RuntimeGauges      `json:"runtime"`
	Arena     idaflash.PoolStats `json:"arena"`
	// Traces and Snapshots are the process-wide trace cache and snapshot
	// store every run goes through.
	Traces    memo.Stats    `json:"traces"`
	Snapshots results.Stats `json:"snapshots"`
}

// RuntimeGauges are the Go runtime's memory-pressure indicators, sampled at
// request time. Together with Arena they make the effect of device pooling
// observable in production: reuse hits climbing while HeapAlloc and the GC
// counters stay flat is the run-arena working as intended.
type RuntimeGauges struct {
	// HeapAllocBytes is the live heap (runtime.MemStats.HeapAlloc).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// NumGC is the completed GC cycle count since process start.
	NumGC uint32 `json:"num_gc"`
	// PauseTotalNs is the cumulative stop-the-world pause time.
	PauseTotalNs uint64 `json:"pause_total_ns"`
	// Goroutines is the current goroutine count.
	Goroutines int `json:"goroutines"`
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, Statz{
		Server:    s.Stats(),
		Endpoints: s.endpoints.snapshot(),
		Jobs:      s.farm.Gauges(),
		Results:   s.results.Stats(),
		Runtime: RuntimeGauges{
			HeapAllocBytes: ms.HeapAlloc,
			NumGC:          ms.NumGC,
			PauseTotalNs:   ms.PauseTotalNs,
			Goroutines:     runtime.NumGoroutine(),
		},
		Arena:     idaflash.ArenaStats(),
		Traces:    workload.DefaultTraceCache.Stats(),
		Snapshots: idaflash.DefaultSnapshots.Stats(),
	})
}

// batchPoints expands the request into concrete sweep points. Each explicit
// point is validated by BuildConfig, so a configuration the simulator would
// reject fails the submission with a 400 instead of failing its point; the
// named sweeps' points are valid by construction.
func (s *Server) batchPoints(req BatchRequest) ([]experiments.Point, error) {
	budget := req.Requests
	if budget == 0 {
		budget = s.cfg.Requests
	}
	if budget < 0 {
		return nil, fmt.Errorf("requests %d must be non-negative", req.Requests)
	}
	switch {
	case req.Sweep != "" && len(req.Points) > 0:
		return nil, fmt.Errorf("sweep and points are mutually exclusive")
	case req.Sweep != "":
		return experiments.Sweep(req.Sweep, budget)
	case len(req.Points) == 0:
		return nil, fmt.Errorf("batch names no sweep and no points")
	case len(req.Points) > maxBatchPoints:
		return nil, fmt.Errorf("batch of %d points exceeds the cap of %d", len(req.Points), maxBatchPoints)
	}
	pts := make([]experiments.Point, 0, len(req.Points))
	for i, bp := range req.Points {
		profile, err := idaflash.ProfileByName(bp.Profile, budget)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		sys, err := buildSystem(bp.System)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		if _, _, err := idaflash.BuildConfig(profile, sys); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts = append(pts, experiments.Point{Profile: profile, System: sys})
	}
	return pts, nil
}

// handleBatch admits one sweep as a farm job and streams its progress. The
// job rides the farm's own admission (active-job cap) rather than the
// request token gate: a stream held open for minutes must not starve the
// cheap single-run queue.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	var req BatchRequest
	if err := decodeBody(r.Body, 4<<20, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err.Error())
		return
	}
	stream := req.Stream
	if stream == "" {
		stream = "sse"
	}
	if stream != "sse" && stream != "ndjson" && stream != "none" {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Sprintf("unknown stream mode %q", stream))
		return
	}
	points, err := s.batchPoints(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err.Error())
		return
	}
	job, err := s.farm.Submit(points, farm.SubmitOptions{PointTimeout: s.clampTimeout(req.TimeoutMs)})
	switch {
	case errors.Is(err, farm.ErrBusy):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "shed", "too many active jobs, retry later")
		return
	case errors.Is(err, farm.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid", err.Error())
		return
	}
	// The job counts against the drain: a graceful shutdown waits for its
	// points (or cancels them at the drain deadline) before exiting.
	s.inflight.Add(1)
	go func() {
		<-job.Done()
		s.inflight.Done()
	}()
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("batch %s: %d points (sweep=%q stream=%s)", job.ID, len(points), req.Sweep, stream)
	}

	if stream == "none" {
		writeJSON(w, http.StatusAccepted, job.Status(false))
		return
	}
	s.streamJob(w, r, job, 0, stream == "sse", !req.Detach)
}

// handleJob resolves a job: a JSON snapshot with every recorded point by
// default, or — with ?watch=sse|ndjson&from=N — a resumed progress stream
// starting at event offset N (a previous Status's next_event). Watchers
// never cancel the job on disconnect; only the submitting stream may.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.farm.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown", "no such job (never submitted, or evicted)")
		return
	}
	watch := r.URL.Query().Get("watch")
	if watch == "" {
		writeJSON(w, http.StatusOK, job.Status(true))
		return
	}
	if watch != "sse" && watch != "ndjson" {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Sprintf("unknown watch mode %q", watch))
		return
	}
	from := 0
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid", fmt.Sprintf("bad from offset %q", f))
			return
		}
		from = n
	}
	s.streamJob(w, r, job, from, watch == "sse", false)
}

// streamJob writes a job's progress until the job ends or the client goes
// away. SSE framing carries named events (job, point, done); the ndjson
// fallback wraps the same payloads one JSON object per line. Each event is
// flushed immediately — progress is the point of the stream.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *farm.Job, from int, sse, cancelOnDisconnect bool) {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	writeEvent := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b)
		} else {
			fmt.Fprintf(w, "{%q:%s}\n", name, b)
		}
		_ = rc.Flush()
	}
	writeEvent("job", job.Status(false))

	events, stop := job.Subscribe(from)
	defer stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			switch {
			case ev.Point != nil:
				writeEvent("point", ev.Point)
			case ev.Done != nil:
				writeEvent("done", ev.Done)
			}
		case <-r.Context().Done():
			if cancelOnDisconnect {
				job.Cancel()
				if s.cfg.Log != nil {
					s.cfg.Log.Printf("batch %s: client disconnected, cancelling", job.ID)
				}
			}
			return
		}
	}
}
