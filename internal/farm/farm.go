// Package farm turns the experiment service into a simulation farm: a batch
// job manager that accepts whole sweeps (many (profile, system) points at
// once), runs each job's points on its own lanes — at most Workers of them,
// so a huge sweep holds no more places in the server's slot queue than a
// small job does — and streams per-point results to any number of
// subscribers, each of which may attach late and replay from an arbitrary
// event offset (the resume contract behind GET /v1/jobs/{id}).
//
// The manager owns no worker slots. It runs points through a
// caller-supplied Run function — in production the server's one
// store-then-slot helper, which serves a stored point without a slot and
// takes the shared worker slot only for a miss it has claimed — so a
// repeated batch is served from disk without re-simulating and the
// server's admission story stays one pool with one cap.
package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"idaflash/internal/experiments"
)

// Run executes one sweep point, returning the canonical result payload and
// whether it was served from cache rather than simulated.
type Run func(ctx context.Context, pt experiments.Point) (payload json.RawMessage, cached bool, err error)

// Submission errors, mapped by the server onto 429/503.
var (
	// ErrBusy means the active-job cap is hit; retry later.
	ErrBusy = errors.New("farm: too many active jobs")
	// ErrDraining means the manager's parent context ended; no new jobs.
	ErrDraining = errors.New("farm: draining")
)

// Config wires a Manager into its host.
type Config struct {
	// Workers is the number of lanes each job runs on: at most this many
	// of a job's points are in Run at once. Set it to the size of the
	// worker pool Run takes its slots from. Required (positive).
	Workers int
	// Run executes one point. Required. It is called from a job's lanes,
	// under the point's context (the job's, bounded by its point timeout).
	Run Run
	// Parent bounds every job: when it ends, pending points cancel and new
	// submissions are refused. Required (the server passes its runs
	// context, so the drain deadline reaches batch work too).
	Parent context.Context
	// Classify maps a non-context run error onto a wire kind ("invariant",
	// "internal", ...); nil classifies everything as "internal".
	Classify func(error) string
	// Journal, when set, makes jobs durable: every submission writes a
	// write-ahead log (spec, point completions, terminal state) that
	// Recover replays after a restart. Nil keeps jobs process-local.
	Journal *Journal
}

const (
	// maxJobs caps concurrently active (unfinished) jobs.
	maxJobs = 8
	// retain bounds finished jobs kept for GET /v1/jobs/{id}, evicting
	// the oldest-finished first.
	retain = 32
)

// PointResult is one point's outcome, streamed to subscribers and embedded
// in job status. Results holds the canonical stored payload verbatim, so a
// cached replay of a batch is byte-identical to its cold run.
type PointResult struct {
	Index     int             `json:"index"`
	Profile   string          `json:"profile"`
	System    string          `json:"system"`
	Cached    bool            `json:"cached"`
	ElapsedMs int64           `json:"elapsed_ms"`
	Results   json.RawMessage `json:"results,omitempty"`
	Error     string          `json:"error,omitempty"`
	Kind      string          `json:"kind,omitempty"`
}

// ElapsedMs returns the wall time since start in whole milliseconds,
// rounded to the nearest (see RoundMs).
func ElapsedMs(start time.Time) int64 { return RoundMs(time.Since(start)) }

// RoundMs returns d in whole milliseconds, rounded to the nearest: a 2.9 ms
// point reports 3. Truncating would bias every sum of point times (the
// benchmark's worker busy ratio) down by half a millisecond per point.
func RoundMs(d time.Duration) int64 { return d.Round(time.Millisecond).Milliseconds() }

// Job states.
const (
	StateRunning = "running"
	// StateRecovering marks a job rebuilt from its journal after a restart:
	// already-recorded points were replayed into the event log and the rest
	// are running again. It behaves like StateRunning everywhere and
	// resolves to done/cancelled the same way.
	StateRecovering = "recovering"
	StateDone       = "done"
	StateCancelled  = "cancelled"
)

// terminalState reports whether a job has finished (as opposed to running
// or recovering).
func terminalState(s string) bool { return s == StateDone || s == StateCancelled }

// Status is a job snapshot: the poll body of GET /v1/jobs/{id} and the
// payload of a stream's terminal event.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	CacheHits int    `json:"cache_hits"`
	// NextEvent is the offset to resume streaming from (the number of
	// point events emitted so far).
	NextEvent int           `json:"next_event"`
	Points    []PointResult `json:"points,omitempty"`
	// Recovered marks a job that survived a server restart via its journal.
	Recovered bool `json:"recovered,omitempty"`
}

// Event is one streamed message: exactly one of Point (a point finished) or
// Done (the job reached a terminal state; always the last event).
type Event struct {
	Point *PointResult `json:"point,omitempty"`
	Done  *Status      `json:"done,omitempty"`
}

// Job is one submitted batch. All state is guarded by the manager's mutex.
type Job struct {
	ID string

	m      *Manager
	ctx    context.Context
	cancel context.CancelFunc

	points  []experiments.Point
	timeout time.Duration // per-point deadline (0 = none)

	pending   []int // point indices no lane has taken yet, in order
	running   int   // taken by a lane, result not yet recorded
	state     string
	events    []Event        // point events in completion order (replay log)
	results   []*PointResult // by point index, for Status(points)
	completed int
	failed    int
	cancelled int
	cacheHits int
	subs      []chan Event
	finishSeq uint64 // retention order among finished jobs
	doneCh    chan struct{}

	log       *JobLog // write-ahead log; nil when the manager has no journal
	recovered bool    // rebuilt from the journal after a restart
}

// SubmitOptions tune one job.
type SubmitOptions struct {
	// PointTimeout bounds each point's run (0 = only the job/parent
	// lifetime bounds it).
	PointTimeout time.Duration
}

// Gauges are the manager's instantaneous load numbers, exported at /statz.
type Gauges struct {
	ActiveJobs   int64 `json:"active_jobs"`
	QueuedPoints int64 `json:"queued_points"`
	// Recovered counts jobs rebuilt from the journal since startup.
	Recovered int64 `json:"recovered"`
}

// Manager owns the jobs. It has no goroutine of its own: each job's lanes
// exit when the job has no pending point left.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	jobs      map[string]*Job
	nextID    uint64
	finishSeq uint64
	active    int // unfinished jobs

	queued     atomic.Int64
	recoveredN atomic.Int64
}

// New builds a manager.
func New(cfg Config) *Manager {
	return &Manager{cfg: cfg, jobs: make(map[string]*Job)}
}

// Gauges snapshots the load numbers.
func (m *Manager) Gauges() Gauges {
	m.mu.Lock()
	active := m.active
	m.mu.Unlock()
	return Gauges{ActiveJobs: int64(active), QueuedPoints: m.queued.Load(),
		Recovered: m.recoveredN.Load()}
}

// Submit enqueues one job over the given points. The job starts immediately
// (its lanes start) and outlives the submitting request: streaming clients
// that disconnect may cancel it explicitly, poll clients pick it up again
// via Get.
func (m *Manager) Submit(points []experiments.Point, opts SubmitOptions) (*Job, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("farm: empty batch")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Parent.Err() != nil {
		return nil, ErrDraining
	}
	if m.active >= maxJobs {
		return nil, ErrBusy
	}
	m.nextID++
	ctx, cancel := context.WithCancel(m.cfg.Parent)
	j := &Job{
		ID:      fmt.Sprintf("j%d", m.nextID),
		m:       m,
		ctx:     ctx,
		cancel:  cancel,
		points:  points,
		timeout: opts.PointTimeout,
		state:   StateRunning,
		results: make([]*PointResult, len(points)),
		doneCh:  make(chan struct{}),
	}
	j.pending = make([]int, len(points))
	for i := range points {
		j.pending[i] = i
	}
	if m.cfg.Journal != nil {
		// Fail soft: a job whose journal cannot be created still runs, it
		// just dies with the process like a pre-journal job would.
		log, err := m.cfg.Journal.Create(j.ID, JobSpec{
			Points:         points,
			PointTimeoutMs: opts.PointTimeout.Milliseconds(),
		})
		if err != nil {
			m.cfg.Journal.logf("farm: job %s not journaled: %v", j.ID, err)
		} else {
			j.log = log
		}
	}
	m.jobs[j.ID] = j
	m.active++
	m.startLocked(j)
	return j, nil
}

// Get returns a job by ID, or nil when unknown (never submitted, or evicted
// from the finished-job retention window).
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// startLocked queues j's pending points and starts its lanes: one per
// point, up to Workers. Caller holds m.mu.
func (m *Manager) startLocked(j *Job) {
	m.queued.Add(int64(len(j.pending)))
	for i := 0; i < min(m.cfg.Workers, len(j.pending)); i++ {
		go m.lane(j)
	}
}

// lane runs j's pending points one at a time until none is left. Lanes take
// no worker slot themselves: Run does, for a miss only, so a job's stored
// points finish on its lanes while its misses and other callers wait for
// slots. A job holds at most Workers places in the slot queue, which the
// runtime serves first come, first served, so a 110-point sweep and a
// 2-point job submitted after it alternate rather than queue behind each
// other.
func (m *Manager) lane(j *Job) {
	for {
		m.mu.Lock()
		if j.ctx.Err() != nil {
			// Cancelled, or the parent ended: record the rest without
			// running it.
			m.flushLocked(j)
		}
		if len(j.pending) == 0 {
			m.mu.Unlock()
			return
		}
		idx := j.pending[0]
		j.pending = j.pending[1:]
		j.running++
		m.queued.Add(-1)
		m.mu.Unlock()
		m.runPoint(j, idx)
	}
}

// runPoint executes one point and records its outcome. The record must not
// depend on Run's no-panic contract — a point never recorded would leave
// its job running forever — so it sits in a defer alongside a recover that
// records the panic as the point's failure.
func (m *Manager) runPoint(j *Job, idx int) {
	pt := j.points[idx]
	pr := PointResult{Index: idx, Profile: pt.Profile.Name, System: pt.System.Name}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			pr.Error = fmt.Sprintf("panic: %v", v)
			pr.Kind = "internal"
			pr.ElapsedMs = ElapsedMs(start)
		}
		m.finishPoint(j, pr)
	}()

	ctx := j.ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	payload, cached, err := m.cfg.Run(ctx, pt)
	pr.ElapsedMs = ElapsedMs(start)
	switch {
	case err == nil:
		pr.Results = payload
		pr.Cached = cached
	case errors.Is(err, context.DeadlineExceeded):
		pr.Error = "point exceeded its deadline"
		pr.Kind = "deadline"
	case errors.Is(err, context.Canceled):
		pr.Error = "point cancelled"
		pr.Kind = "cancelled"
	default:
		pr.Error = err.Error()
		pr.Kind = "internal"
		if m.cfg.Classify != nil {
			pr.Kind = m.cfg.Classify(err)
		}
	}
}

// cancelledResult builds the record for a point flushed without running.
func (m *Manager) cancelledResult(j *Job, idx int) PointResult {
	pt := j.points[idx]
	return PointResult{Index: idx, Profile: pt.Profile.Name, System: pt.System.Name,
		Error: "point cancelled", Kind: "cancelled"}
}

// finishPoint records a lane's point outcome.
func (m *Manager) finishPoint(j *Job, pr PointResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.running--
	m.recordLocked(j, pr)
}

// flushLocked records every still-pending point of a cancelled job, so
// cancellation never waits on — or consumes — worker slots. Caller holds
// m.mu; j's context must be done.
func (m *Manager) flushLocked(j *Job) {
	m.queued.Add(-int64(len(j.pending)))
	pending := j.pending
	j.pending = nil
	for _, idx := range pending {
		m.recordLocked(j, m.cancelledResult(j, idx))
	}
}

// recordLocked appends one point's result to the job's event log, fans it
// out, and finishes the job when it was the last. Caller holds m.mu.
func (m *Manager) recordLocked(j *Job, pr PointResult) {
	j.results[pr.Index] = &pr
	switch pr.Kind {
	case "":
		j.completed++
		if pr.Cached {
			j.cacheHits++
		}
	case "cancelled", "deadline":
		j.cancelled++
	default:
		j.failed++
	}
	// Journal before fan-out: once a subscriber has seen event N, a
	// restarted server must be able to replay events 0..N, so the fsynced
	// append happens strictly before the event leaves the process.
	j.log.Point(pr)
	ev := Event{Point: &pr}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		ch <- ev // buffered to total+1; never blocks
	}
	if j.running == 0 && len(j.pending) == 0 && len(j.events) == len(j.points) {
		m.finishLocked(j)
	}
}

// finishLocked moves a job to its terminal state: emits the Done event,
// closes every subscriber, releases the job's context, and evicts the
// oldest finished jobs beyond the retention window.
func (m *Manager) finishLocked(j *Job) {
	j.state = StateDone
	if j.ctx.Err() != nil || j.cancelled > 0 {
		j.state = StateCancelled
	}
	j.log.State(j.state)
	j.log.Close()
	done := j.statusLocked(false)
	for _, ch := range j.subs {
		ch <- Event{Done: &done}
		close(ch)
	}
	j.subs = nil
	j.cancel()
	close(j.doneCh)
	m.active--
	m.finishSeq++
	j.finishSeq = m.finishSeq

	finished := 0
	var oldest *Job
	for _, other := range m.jobs {
		if !terminalState(other.state) {
			continue
		}
		finished++
		if oldest == nil || other.finishSeq < oldest.finishSeq {
			oldest = other
		}
	}
	if finished > retain && oldest != nil {
		delete(m.jobs, oldest.ID)
		m.cfg.Journal.Remove(oldest.ID)
	}
}

// Cancel stops the job: running points see their context end (the engine
// stops within its polling bounds), and queued points are flushed as
// cancelled immediately, without waiting on or consuming worker slots.
func (j *Job) Cancel() {
	j.cancel()
	j.m.mu.Lock()
	j.m.flushLocked(j)
	j.m.mu.Unlock()
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Status snapshots the job; withPoints includes every recorded point (the
// poll body), withPoints=false just the counters (the stream terminal
// event).
func (j *Job) Status(withPoints bool) Status {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.statusLocked(withPoints)
}

func (j *Job) statusLocked(withPoints bool) Status {
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Total:     len(j.points),
		Completed: j.completed,
		Failed:    j.failed,
		Cancelled: j.cancelled,
		CacheHits: j.cacheHits,
		NextEvent: len(j.events),
		Recovered: j.recovered,
	}
	if withPoints {
		for _, pr := range j.results {
			if pr != nil {
				st.Points = append(st.Points, *pr)
			}
		}
	}
	return st
}

// Subscribe attaches a stream starting at event offset from (0 replays the
// whole job; Status().NextEvent resumes after what a previous stream
// delivered). The channel is buffered for the job's full event volume, so
// the manager never blocks on a slow subscriber, and it closes after the
// terminal Done event. The returned stop function detaches early (a
// disconnected client) and closes the channel, so a reader ranging over it
// terminates; it is safe to call after the channel closed.
func (j *Job) Subscribe(from int) (<-chan Event, func()) {
	m := j.m
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan Event, len(j.points)+1)
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	for _, ev := range j.events[from:] {
		ch <- ev
	}
	if terminalState(j.state) {
		done := j.statusLocked(false)
		ch <- Event{Done: &done}
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, sub := range j.subs {
			if sub == ch {
				// Sends and closes both happen under m.mu and only to
				// channels still in subs, so removing first makes this
				// close exactly-once: a finished job already closed the
				// channel and cleared the list, and this branch is skipped.
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, stop
}
