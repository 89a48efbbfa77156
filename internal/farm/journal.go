package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"idaflash/internal/experiments"
	"idaflash/internal/frame"
	"idaflash/internal/results"
)

// The job journal is the farm's write-ahead log: one file per job under
// <store-dir>/jobs, recording the job's spec, every point completion, and
// the terminal state, in the order the event log emitted them. It is a
// record stream in the store directory's one framing (internal/frame):
// magic "IDAJRNL\x00", version, then kind/length/payload/CRC64 records, so
// a torn tail or a flipped bit is detected, truncated away, and recovery
// resumes from the last good record instead of panicking or trusting
// garbage.
//
// Record kinds: spec (JSON JobSpec, always first), point (JSON PointResult,
// one per completion, in event-log order), state (raw terminal state
// string, always last). Every append is fsynced before the manager fans the
// event out to subscribers, so a client's resume offset can never run ahead
// of what a restarted server can replay: after a crash, a subscriber's
// `from` is at most the journal's record count — duplicates are possible,
// gaps are not.

// JournalVersion is bumped on any incompatible layout change; a mismatched
// journal is discarded (fail soft to a fresh job), never misread.
const JournalVersion = 1

var journalFormat = frame.Format{Magic: [8]byte{'I', 'D', 'A', 'J', 'R', 'N', 'L', 0}, Version: JournalVersion}

const (
	recSpec  byte = 1
	recPoint byte = 2
	recState byte = 3
)

// JobSpec is the journal's replayable description of a submitted job.
type JobSpec struct {
	Points         []experiments.Point `json:"points"`
	PointTimeoutMs int64               `json:"point_timeout_ms,omitempty"`
}

// Journal owns the per-job log directory. All failure modes are soft: a
// journal that cannot be written stops being written (the job still runs,
// it just won't survive a crash), and a journal that cannot be parsed is
// removed.
type Journal struct {
	dir string
	// Logf receives fail-soft diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// OpenJournal opens (creating if needed) the journal directory — by
// convention <store-dir>/jobs.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("farm: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	return &Journal{dir: dir}, nil
}

func (jn *Journal) logf(format string, args ...any) {
	if jn != nil && jn.Logf != nil {
		jn.Logf(format, args...)
	}
}

func (jn *Journal) path(id string) string {
	return filepath.Join(jn.dir, id+".jrnl")
}

// Create starts a job's log: header plus spec record, fsynced (file and
// directory) before returning, so a job that was acknowledged to a client
// is recoverable from that moment on.
func (jn *Journal) Create(id string, spec JobSpec) (*JobLog, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("farm: encoding job spec: %w", err)
	}
	f, err := os.OpenFile(jn.path(id), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: creating journal: %w", err)
	}
	_, err = f.Write(frame.AppendRecord(journalFormat.AppendHeader(nil), recSpec, payload))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(jn.path(id))
		return nil, fmt.Errorf("farm: writing journal: %w", err)
	}
	if err := results.SyncDir(jn.dir); err != nil {
		jn.logf("farm: syncing journal dir: %v", err)
	}
	return &JobLog{f: f, path: jn.path(id), logf: jn.logf}, nil
}

// Remove deletes a job's log (the job was evicted from retention, or its
// journal proved unrecoverable).
func (jn *Journal) Remove(id string) {
	if jn == nil {
		return
	}
	_ = os.Remove(jn.path(id))
}

// JobLog is one job's open journal file. Appends are serialized and
// fsynced; the first write error marks the log broken and silences it — the
// job keeps running, it just loses crash durability.
type JobLog struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	broken bool
	logf   func(format string, args ...any)
}

func (l *JobLog) append(kind byte, payload []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken || l.f == nil {
		return
	}
	_, err := l.f.Write(frame.AppendRecord(nil, kind, payload))
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.broken = true
		if l.logf != nil {
			l.logf("farm: journal %s broken, job loses crash durability: %v", filepath.Base(l.path), err)
		}
	}
}

// Point appends one completion record.
func (l *JobLog) Point(pr PointResult) {
	payload, err := json.Marshal(pr)
	if err != nil {
		return
	}
	l.append(recPoint, payload)
}

// State appends the terminal state record.
func (l *JobLog) State(state string) { l.append(recState, []byte(state)) }

// Close closes the underlying file.
func (l *JobLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// journalContent is a parsed journal prefix: everything up to the first
// malformed byte.
type journalContent struct {
	spec     JobSpec
	specOK   bool
	points   []PointResult // in journal (= event log) order
	terminal string        // "" while the job was still unfinished
	valid    int64         // byte length of the well-formed prefix
}

// parseJournal walks records until the first torn, corrupt, or nonsensical
// one, keeping everything before it. It never panics on arbitrary bytes.
func parseJournal(b []byte) journalContent {
	var c journalContent
	rest, err := journalFormat.CheckHeader(b)
	if err != nil {
		return c
	}
	c.valid = int64(len(b) - len(rest))
	seen := make(map[int]bool)
	for {
		kind, payload, next, err := frame.NextRecord(rest)
		if err != nil {
			return c // clean EOF, torn tail, or flipped bits
		}
		switch {
		case kind == recSpec && !c.specOK && len(c.points) == 0:
			var spec JobSpec
			if json.Unmarshal(payload, &spec) != nil || len(spec.Points) == 0 {
				return c
			}
			c.spec, c.specOK = spec, true
		case kind == recPoint && c.specOK && c.terminal == "":
			var pr PointResult
			if json.Unmarshal(payload, &pr) != nil {
				return c
			}
			if pr.Index < 0 || pr.Index >= len(c.spec.Points) || seen[pr.Index] {
				return c // index out of range or double-recorded: distrust the rest
			}
			seen[pr.Index] = true
			c.points = append(c.points, pr)
		case kind == recState && c.specOK && c.terminal == "":
			c.terminal = string(payload)
		default:
			return c // spec repeated, record after terminal, unknown kind...
		}
		rest = next
		c.valid = int64(len(b) - len(rest))
	}
}

// RecoveredJob is one unfinished job reconstructed from its journal: spec,
// the completions already recorded, and the reopened log ready for appends.
type RecoveredJob struct {
	ID          string
	Spec        JobSpec
	Completions []PointResult
	Log         *JobLog
}

// Scan reads every journal in the directory. Unfinished jobs come back as
// RecoveredJobs (their files truncated to the well-formed prefix and
// reopened for append); terminal and unrecoverable journals are removed.
// maxID is the highest numeric job ID seen — including removed ones — so
// the manager never reissues an ID a client may still hold. All errors are
// soft: a journal that cannot be read is skipped, never fatal.
func (jn *Journal) Scan() (recovered []RecoveredJob, maxID uint64) {
	entries, err := os.ReadDir(jn.dir)
	if err != nil {
		jn.logf("farm: scanning journals: %v", err)
		return nil, 0
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".jrnl") {
			continue
		}
		id := strings.TrimSuffix(name, ".jrnl")
		if n, ok := parseJobID(id); ok && n > maxID {
			maxID = n
		}
		b, err := os.ReadFile(jn.path(id))
		if err != nil {
			jn.logf("farm: reading journal %s: %v", name, err)
			continue
		}
		c := parseJournal(b)
		if !c.specOK || c.terminal != "" {
			// Finished, or too corrupt to trust: either way there is nothing
			// to resume. Fail soft to no job.
			if !c.specOK {
				jn.logf("farm: journal %s unrecoverable, removing", name)
			}
			jn.Remove(id)
			continue
		}
		if int64(len(b)) > c.valid {
			// Torn tail: drop it so future appends extend a clean log.
			if err := os.Truncate(jn.path(id), c.valid); err != nil {
				jn.logf("farm: truncating journal %s: %v", name, err)
				jn.Remove(id)
				continue
			}
			jn.logf("farm: journal %s truncated %d -> %d bytes", name, len(b), c.valid)
		}
		f, err := os.OpenFile(jn.path(id), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			jn.logf("farm: reopening journal %s: %v", name, err)
			jn.Remove(id)
			continue
		}
		recovered = append(recovered, RecoveredJob{
			ID:          id,
			Spec:        c.spec,
			Completions: c.points,
			Log:         &JobLog{f: f, path: jn.path(id), logf: jn.logf},
		})
	}
	// Deterministic recovery order (ReadDir is sorted, but numeric IDs
	// should recover in submission order: j2 before j10).
	sort.Slice(recovered, func(i, j int) bool {
		a, _ := parseJobID(recovered[i].ID)
		b, _ := parseJobID(recovered[j].ID)
		return a < b
	})
	return recovered, maxID
}

// parseJobID extracts the numeric part of a "jN" job ID.
func parseJobID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Recover rebuilds every unfinished journaled job: journaled completions
// replay into the event log (so a subscriber's pre-crash resume offset
// lands inside it), the remaining points run on the job's new lanes,
// and the job keeps its original ID in state "recovering" until it
// finishes. Points whose results are already in the content-addressed store
// cost a disk read, not a simulation. Call once, after the result store's
// disk tier is attached and before serving traffic.
func (m *Manager) Recover() []*Job {
	if m.cfg.Journal == nil {
		return nil
	}
	recs, maxID := m.cfg.Journal.Scan()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nextID < maxID {
		m.nextID = maxID
	}
	var out []*Job
	for _, rec := range recs {
		if _, exists := m.jobs[rec.ID]; exists {
			rec.Log.Close()
			continue
		}
		ctx, cancel := context.WithCancel(m.cfg.Parent)
		j := &Job{
			ID:        rec.ID,
			m:         m,
			ctx:       ctx,
			cancel:    cancel,
			points:    rec.Spec.Points,
			timeout:   time.Duration(rec.Spec.PointTimeoutMs) * time.Millisecond,
			state:     StateRecovering,
			recovered: true,
			results:   make([]*PointResult, len(rec.Spec.Points)),
			doneCh:    make(chan struct{}),
			log:       rec.Log,
		}
		for _, pr := range rec.Completions {
			pr := pr
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
			j.events = append(j.events, Event{Point: &pr})
		}
		for i := range j.points {
			if j.results[i] == nil {
				j.pending = append(j.pending, i)
			}
		}
		m.jobs[j.ID] = j
		m.active++
		m.recoveredN.Add(1)
		out = append(out, j)
		if len(j.pending) == 0 {
			// Every point was recorded but the terminal record is missing
			// (the crash landed between the last point and the state write):
			// finish now, durably this time.
			m.finishLocked(j)
			continue
		}
		m.startLocked(j)
	}
	return out
}
