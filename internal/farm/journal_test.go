package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"idaflash/internal/experiments"
)

// journal builds a Journal over a temp dir.
func journal(t *testing.T) *Journal {
	t.Helper()
	jn, err := OpenJournal(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	return jn
}

// writeJournal authors a journal file directly: spec, the given completion
// records, and optionally a terminal state — the on-disk shape a crashed
// server leaves behind.
func writeJournal(t *testing.T, jn *Journal, id string, spec JobSpec, points []PointResult, terminal string) {
	t.Helper()
	l, err := jn.Create(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range points {
		l.Point(pr)
	}
	if terminal != "" {
		l.State(terminal)
	}
	l.Close()
}

func okPoint(idx int) PointResult {
	return PointResult{Index: idx, Profile: fmt.Sprintf("p%d", idx), System: "sys",
		Results: json.RawMessage(fmt.Sprintf(`{"i":%d}`, idx))}
}

func TestJournalRoundTrip(t *testing.T) {
	jn := journal(t)
	spec := JobSpec{Points: testPoints("a", 4), PointTimeoutMs: 1500}
	writeJournal(t, jn, "j3", spec, []PointResult{okPoint(2), okPoint(0)}, "")

	recs, maxID := jn.Scan()
	if len(recs) != 1 || maxID != 3 {
		t.Fatalf("Scan: %d jobs, maxID %d; want 1, 3", len(recs), maxID)
	}
	r := recs[0]
	r.Log.Close()
	if r.ID != "j3" || len(r.Spec.Points) != 4 || r.Spec.PointTimeoutMs != 1500 {
		t.Fatalf("recovered %q spec %+v", r.ID, r.Spec)
	}
	if r.Spec.Points[1].Profile.Name != "a-p1" {
		t.Errorf("point 1 profile %q", r.Spec.Points[1].Profile.Name)
	}
	if len(r.Completions) != 2 || r.Completions[0].Index != 2 || r.Completions[1].Index != 0 {
		t.Fatalf("completions %+v", r.Completions)
	}
	if string(r.Completions[0].Results) != `{"i":2}` {
		t.Errorf("payload %s", r.Completions[0].Results)
	}
}

func TestScanRemovesTerminalAndKeepsMaxID(t *testing.T) {
	jn := journal(t)
	writeJournal(t, jn, "j7", JobSpec{Points: testPoints("a", 1)}, []PointResult{okPoint(0)}, StateDone)
	recs, maxID := jn.Scan()
	if len(recs) != 0 {
		t.Fatalf("recovered %d jobs from a terminal journal", len(recs))
	}
	if maxID != 7 {
		t.Errorf("maxID %d, want 7 (terminal IDs must not be reissued)", maxID)
	}
	if _, err := os.Stat(jn.path("j7")); !os.IsNotExist(err) {
		t.Errorf("terminal journal not removed: %v", err)
	}
}

// TestScanTruncationAtEveryBoundary cuts a three-record journal at every
// byte length and asserts Scan never panics, never invents records, and
// recovers exactly the completions whose records survived intact.
func TestScanTruncationAtEveryBoundary(t *testing.T) {
	ref := journal(t)
	writeJournal(t, ref, "j1", JobSpec{Points: testPoints("a", 3)},
		[]PointResult{okPoint(0), okPoint(1)}, "")
	whole, err := os.ReadFile(ref.path("j1"))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the record boundaries by re-parsing prefixes: a cut is "at a
	// boundary" when parsing the prefix loses nothing.
	full := parseJournal(whole)
	if !full.specOK || len(full.points) != 2 {
		t.Fatalf("reference journal did not parse: %+v", full)
	}
	for cut := 0; cut <= len(whole); cut++ {
		jn := journal(t)
		if err := os.WriteFile(jn.path("j1"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _ := jn.Scan()
		for _, r := range recs {
			r.Log.Close()
		}
		want := parseJournal(whole[:cut])
		if !want.specOK {
			if len(recs) != 0 {
				t.Fatalf("cut %d: recovered a job from a spec-less prefix", cut)
			}
			if _, err := os.Stat(jn.path("j1")); !os.IsNotExist(err) {
				t.Fatalf("cut %d: unrecoverable journal not removed", cut)
			}
			continue
		}
		if len(recs) != 1 {
			t.Fatalf("cut %d: recovered %d jobs, want 1", cut, len(recs))
		}
		if got := len(recs[0].Completions); got != len(want.points) {
			t.Fatalf("cut %d: %d completions, want %d", cut, got, len(want.points))
		}
		// The torn tail must be gone: the file ends at the valid prefix.
		fi, err := os.Stat(jn.path("j1"))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != want.valid {
			t.Errorf("cut %d: file %d bytes after scan, want %d", cut, fi.Size(), want.valid)
		}
	}
}

// TestScanBitFlips flips every byte of a journal in turn; recovery must
// never panic and never trust a record the flip touched.
func TestScanBitFlips(t *testing.T) {
	ref := journal(t)
	writeJournal(t, ref, "j1", JobSpec{Points: testPoints("a", 3)},
		[]PointResult{okPoint(0), okPoint(1)}, "")
	whole, err := os.ReadFile(ref.path("j1"))
	if err != nil {
		t.Fatal(err)
	}
	full := parseJournal(whole)
	for pos := 0; pos < len(whole); pos++ {
		mut := append([]byte(nil), whole...)
		mut[pos] ^= 0x40
		c := parseJournal(mut)
		// A flip can only shorten what parses — never add records — and the
		// valid prefix must stop at or before the flipped byte's record.
		if len(c.points) > len(full.points) || c.valid > int64(len(whole)) {
			t.Fatalf("pos %d: parse grew: %+v", pos, c)
		}
		jn := journal(t)
		if err := os.WriteFile(jn.path("j1"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _ := jn.Scan()
		for _, r := range recs {
			r.Log.Close()
		}
		if len(recs) > 1 {
			t.Fatalf("pos %d: %d jobs", pos, len(recs))
		}
	}
}

func TestParseJournalGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("x"), []byte("IDAJRNL\x00"), make([]byte, 64)} {
		c := parseJournal(b)
		if c.specOK || len(c.points) != 0 {
			t.Errorf("parsed %q: %+v", b, c)
		}
	}
}

// recoverManager builds a journaled manager, letting the test drive Submit
// or Recover against the same directory across "restarts".
func recoverManager(t *testing.T, jn *Journal, workers int, run Run) *Manager {
	t.Helper()
	return manager(t, workers, run, func(c *Config) { c.Journal = jn })
}

func TestRecoverRunsOnlyMissingPoints(t *testing.T) {
	jn := journal(t)
	// The "crashed" server completed points 1 and 3 of five.
	writeJournal(t, jn, "j2", JobSpec{Points: testPoints("a", 5)},
		[]PointResult{okPoint(1), okPoint(3)}, "")

	var ran int32
	var ranNames []string
	runs := make(chan string, 8)
	// Points are held until the recovered status has been checked: the
	// recovered job starts running at once, and a point finishing first
	// would move NextEvent past the journaled count.
	release := make(chan struct{})
	m := recoverManager(t, jn, 2, func(ctx context.Context, pt experiments.Point) (json.RawMessage, bool, error) {
		atomic.AddInt32(&ran, 1)
		runs <- pt.Profile.Name
		select {
		case <-release:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		return json.RawMessage(`{"fresh":true}`), true, nil
	})
	jobs := m.Recover()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs", len(jobs))
	}
	j := jobs[0]
	if j.ID != "j2" {
		t.Errorf("recovered ID %q", j.ID)
	}
	if st := j.Status(false); st.State != StateRecovering || !st.Recovered || st.NextEvent != 2 {
		t.Fatalf("recovered status %+v", st)
	}
	if g := m.Gauges(); g.Recovered != 1 {
		t.Errorf("gauges %+v", g)
	}
	close(release)

	// A subscriber resuming from its pre-crash offset sees exactly the
	// missing points, then Done — contiguous, no gaps, no duplicates.
	ch, _ := j.Subscribe(2)
	points, done := drain(ch)
	if len(points) != 3 {
		t.Fatalf("resumed stream delivered %d events, want 3", len(points))
	}
	if done == nil || done.State != StateDone || done.Completed != 5 {
		t.Fatalf("terminal %+v", done)
	}
	if n := atomic.LoadInt32(&ran); n != 3 {
		t.Fatalf("ran %d points, want 3 (completed points must not re-run)", n)
	}
	close(runs)
	for name := range runs {
		ranNames = append(ranNames, name)
	}
	for _, name := range ranNames {
		if name == "a-p1" || name == "a-p3" {
			t.Errorf("journaled point %s was re-run", name)
		}
	}

	// A full replay from zero serves the journaled payloads verbatim.
	ch2, _ := j.Subscribe(0)
	all, _ := drain(ch2)
	if len(all) != 5 {
		t.Fatalf("full replay delivered %d events", len(all))
	}
	if string(all[0].Results) != `{"i":1}` || string(all[1].Results) != `{"i":3}` {
		t.Errorf("journaled payloads not replayed verbatim: %s, %s", all[0].Results, all[1].Results)
	}

	// Finishing must have journaled the terminal state: a second restart
	// finds nothing to recover.
	recs, maxID := jn.Scan()
	if len(recs) != 0 || maxID != 2 {
		t.Errorf("after finish: %d recoverable jobs, maxID %d", len(recs), maxID)
	}
}

func TestRecoverFullyCompletedJobFinishesImmediately(t *testing.T) {
	jn := journal(t)
	// Every point recorded, terminal record missing: the crash landed
	// between the last completion and the state write.
	writeJournal(t, jn, "j1", JobSpec{Points: testPoints("a", 2)},
		[]PointResult{okPoint(0), okPoint(1)}, "")
	m := recoverManager(t, jn, 1, func(_ context.Context, _ experiments.Point) (json.RawMessage, bool, error) {
		t.Error("no point should run")
		return nil, false, nil
	})
	jobs := m.Recover()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs", len(jobs))
	}
	select {
	case <-jobs[0].Done():
	case <-time.After(2 * time.Second):
		t.Fatal("fully-completed job did not finish at recovery")
	}
	if st := jobs[0].Status(false); st.State != StateDone || st.Completed != 2 {
		t.Errorf("status %+v", st)
	}
}

func TestRecoverAdvancesJobIDs(t *testing.T) {
	jn := journal(t)
	writeJournal(t, jn, "j9", JobSpec{Points: testPoints("a", 1)}, nil, "")
	m := recoverManager(t, jn, 1, okRun("x"))
	jobs := m.Recover()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs", len(jobs))
	}
	<-jobs[0].Done()
	j, err := m.Submit(testPoints("b", 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j10" {
		t.Errorf("post-recovery submission got ID %q, want j10", j.ID)
	}
	<-j.Done()
}

// TestRecoveredSubscribersDoNotLeak attaches subscribers to a recovered job
// and detaches one early; the manager-cleanup goroutine check in manager()
// catches any leak.
func TestRecoveredSubscribersDoNotLeak(t *testing.T) {
	jn := journal(t)
	writeJournal(t, jn, "j1", JobSpec{Points: testPoints("a", 4)},
		[]PointResult{okPoint(0)}, "")
	block := make(chan struct{})
	m := recoverManager(t, jn, 1, func(ctx context.Context, _ experiments.Point) (json.RawMessage, bool, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		return json.RawMessage(`{}`), false, nil
	})
	jobs := m.Recover()
	if len(jobs) != 1 {
		t.Fatal("no job recovered")
	}
	j := jobs[0]
	ch1, stop1 := j.Subscribe(0)
	ch2, _ := j.Subscribe(1)
	// Detach the first subscriber mid-job (a disconnected client).
	stop1()
	go func() {
		for range ch1 {
		}
	}()
	close(block)
	points, done := drain(ch2)
	if done == nil || done.State != StateDone {
		t.Fatalf("terminal %+v", done)
	}
	if len(points) != 3 {
		t.Errorf("subscriber from offset 1 got %d events, want 3", len(points))
	}
	// manager()'s cleanup asserts the goroutine count settles.
}

func TestSubmitJournalsAndFinishCleansUp(t *testing.T) {
	jn := journal(t)
	m := recoverManager(t, jn, 2, okRun("x"))
	j, err := m.Submit(testPoints("a", 3), SubmitOptions{PointTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	// The journal now carries a terminal record: a restart has nothing to
	// resume and removes the file.
	recs, maxID := jn.Scan()
	if len(recs) != 0 {
		t.Fatalf("finished job still recoverable: %d", len(recs))
	}
	if maxID != 1 {
		t.Errorf("maxID %d", maxID)
	}
}
