// Package farm turns the experiment service into a simulation farm: a batch
// job manager that accepts whole sweeps (many (profile, system) points at
// once), shards their points across the server's bounded worker pool with
// round-robin fairness between jobs — a huge sweep cannot starve a small
// one — and streams per-point results to any number of subscribers, each of
// which may attach late and replay from an arbitrary event offset (the
// resume contract behind GET /v1/jobs/{id}).
//
// The manager owns no workers of its own. It competes for the same slot
// channel the single-run endpoint uses, so the server's admission story
// stays one pool with one cap, and it runs points through a caller-supplied
// Run function — in production the content-addressed result store, so a
// repeated batch is served from disk without re-simulating.
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
	// Slots is the shared worker-slot channel (acquire by send, release by
	// receive). Required.
	Slots chan struct{}
	// Run executes one point. Required.
	Run Run
	// Parent bounds every job: when it ends, pending points cancel and new
	// submissions are refused. Required (the server passes its runs
	// context, so the drain deadline reaches batch work too).
	Parent context.Context
	// MaxJobs caps concurrently active (unfinished) jobs; defaults to 8.
	MaxJobs int
	// Retain bounds finished jobs kept for GET /v1/jobs/{id}; defaults to
	// 32, evicting oldest-finished first.
	Retain int
	// Classify maps a non-context run error onto a wire kind ("invariant",
	// "internal", ...); nil classifies everything as "internal".
	Classify func(error) string
	// Journal, when set, makes jobs durable: every submission writes a
	// write-ahead log (spec, point completions, terminal state) that
	// Recover replays after a restart. Nil keeps jobs process-local.
	Journal *Journal
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 8
	}
	if c.Retain <= 0 {
		c.Retain = 32
	}
	return c
}

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

	pending   []int // point indices not yet dispatched, in order
	running   int   // dispatched, result not yet recorded
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

// Manager owns the jobs and the single dispatcher goroutine.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	jobs      map[string]*Job
	rr        []*Job // jobs with pending points, round-robin order
	cursor    int
	nextID    uint64
	finishSeq uint64
	active    int // unfinished jobs

	queued     atomic.Int64
	recoveredN atomic.Int64
	kick       chan struct{}
}

// New starts a manager and its dispatcher. The dispatcher exits after
// cfg.Parent ends and every queued point has been flushed.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:  cfg.withDefaults(),
		jobs: make(map[string]*Job),
		kick: make(chan struct{}, 1),
	}
	go m.dispatch()
	return m
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
// (its points enter the round-robin rotation) and outlives the submitting
// request: streaming clients that disconnect may cancel it explicitly, poll
// clients pick it up again via Get.
func (m *Manager) Submit(points []experiments.Point, opts SubmitOptions) (*Job, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("farm: empty batch")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Parent.Err() != nil {
		return nil, ErrDraining
	}
	if m.active >= m.cfg.MaxJobs {
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
	m.rr = append(m.rr, j)
	m.active++
	m.queued.Add(int64(len(points)))
	m.wake()
	return j, nil
}

// Get returns a job by ID, or nil when unknown (never submitted, or evicted
// from the finished-job retention window).
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// wake nudges the dispatcher without blocking.
func (m *Manager) wake() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// next pops the next pending point, rotating fairly across jobs: each pick
// advances to the following job, so a 100-point job and a 2-point job
// alternate instead of queueing behind each other.
func (m *Manager) next() (*Job, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.rr) == 0 {
		return nil, 0, false
	}
	if m.cursor >= len(m.rr) {
		m.cursor = 0
	}
	j := m.rr[m.cursor]
	idx := j.pending[0]
	j.pending = j.pending[1:]
	if len(j.pending) == 0 {
		m.rr = append(m.rr[:m.cursor], m.rr[m.cursor+1:]...)
	} else {
		m.cursor++
	}
	j.running++
	m.queued.Add(-1)
	return j, idx, true
}

// dispatch is the manager's only long-lived goroutine. It acquires a shared
// worker slot BEFORE choosing a point, so the round-robin pick happens at
// the moment work can actually start — choosing first and then waiting
// would run the rotation one point ahead and let a job sneak two
// consecutive points past a late-arriving peer.
func (m *Manager) dispatch() {
	for {
		if !m.waitPending() {
			return
		}
		select {
		case m.cfg.Slots <- struct{}{}:
		case <-m.cfg.Parent.Done():
			// Every job context is a child of Parent: flush the whole
			// queue as cancelled rather than waiting for slots.
			m.mu.Lock()
			for len(m.rr) > 0 {
				m.flushLocked(m.rr[0])
			}
			m.mu.Unlock()
			continue
		}
		j, idx, ok := m.next()
		if !ok {
			// The queue emptied (a cancel flushed it) while we waited.
			<-m.cfg.Slots
			continue
		}
		if j.ctx.Err() != nil {
			// Cancelled between the pick and here: record without running.
			<-m.cfg.Slots
			m.finishPoint(j, m.cancelledResult(j, idx))
			m.mu.Lock()
			m.flushLocked(j)
			m.mu.Unlock()
			continue
		}
		go m.runPoint(j, idx)
	}
}

// waitPending blocks until a point is queued; false means the parent ended
// with nothing queued — and since submissions are refused after that, the
// dispatcher's work is done.
func (m *Manager) waitPending() bool {
	for {
		m.mu.Lock()
		n := len(m.rr)
		m.mu.Unlock()
		if n > 0 {
			return true
		}
		select {
		case <-m.kick:
		case <-m.cfg.Parent.Done():
			m.mu.Lock()
			n := len(m.rr)
			m.mu.Unlock()
			return n > 0
		}
	}
}

// runPoint executes one point on an acquired slot. The slot release must
// not depend on Run's no-panic contract — a leaked slot would wedge the
// shared pool for the whole server — so it sits in a defer alongside a
// recover that records the panic as the point's failure.
func (m *Manager) runPoint(j *Job, idx int) {
	pt := j.points[idx]
	pr := PointResult{Index: idx, Profile: pt.Profile.Name, System: pt.System.Name}
	start := time.Now()
	defer func() {
		<-m.cfg.Slots
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

// finishPoint records a dispatched point's outcome.
func (m *Manager) finishPoint(j *Job, pr PointResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.running--
	m.recordLocked(j, pr)
}

// flushLocked records every still-pending point of a cancelled job and
// removes it from the rotation, so cancellation never waits on — or
// consumes — worker slots. Caller holds m.mu; j's context must be done.
func (m *Manager) flushLocked(j *Job) {
	if len(j.pending) == 0 {
		return
	}
	for i, other := range m.rr {
		if other == j {
			m.rr = append(m.rr[:i], m.rr[i+1:]...)
			if i < m.cursor {
				m.cursor--
			}
			break
		}
	}
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
	if finished > m.cfg.Retain && oldest != nil {
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
