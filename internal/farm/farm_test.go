package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/workload"
)

// testPoints builds n distinguishable points; the fake runs never validate
// them, so sparse profiles are fine.
func testPoints(job string, n int) []experiments.Point {
	pts := make([]experiments.Point, n)
	for i := range pts {
		pts[i] = experiments.Point{
			Profile: workload.Profile{Name: fmt.Sprintf("%s-p%d", job, i)},
			System:  idaflash.System{Name: "sys"},
		}
	}
	return pts
}

// manager builds a Manager over a fresh slot pool and cancels it at test
// end, waiting for the dispatcher to exit so goroutine accounting between
// tests stays clean.
func manager(t *testing.T, slots int, run Run, tweak func(*Config)) *Manager {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Slots:  make(chan struct{}, slots),
		Run:    run,
		Parent: ctx,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	m := New(cfg)
	t.Cleanup(func() {
		cancel()
		waitGoroutines(t)
	})
	return m
}

// waitGoroutines polls until the goroutine count settles back to the
// pre-suite ballpark, failing the test on a leak.
func waitGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baselineGoroutines+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutines did not settle: %d running, baseline %d\n%s", n, baselineGoroutines, buf)
}

var baselineGoroutines = runtime.NumGoroutine()

// drain collects every event until the channel closes.
func drain(ch <-chan Event) (points []PointResult, done *Status) {
	for ev := range ch {
		if ev.Point != nil {
			points = append(points, *ev.Point)
		}
		if ev.Done != nil {
			done = ev.Done
		}
	}
	return points, done
}

func okRun(payload string) Run {
	return func(_ context.Context, pt experiments.Point) (json.RawMessage, bool, error) {
		return json.RawMessage(fmt.Sprintf(`{"p":%q,"v":%q}`, pt.Profile.Name, payload)), false, nil
	}
}

func TestBatchRunsEveryPointAndFinishes(t *testing.T) {
	m := manager(t, 2, okRun("x"), nil)
	j, err := m.Submit(testPoints("a", 5), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := j.Subscribe(0)
	points, done := drain(ch)
	if len(points) != 5 {
		t.Fatalf("streamed %d point events, want 5", len(points))
	}
	if done == nil || done.State != StateDone || done.Completed != 5 || done.Failed+done.Cancelled != 0 {
		t.Fatalf("terminal status %+v", done)
	}
	seen := map[int]bool{}
	for _, pr := range points {
		if pr.Error != "" {
			t.Errorf("point %d failed: %s", pr.Index, pr.Error)
		}
		seen[pr.Index] = true
	}
	if len(seen) != 5 {
		t.Errorf("duplicate point indices in stream: %v", seen)
	}
	st := j.Status(true)
	if len(st.Points) != 5 || st.NextEvent != 5 {
		t.Errorf("status %+v", st)
	}
	if g := m.Gauges(); g.ActiveJobs != 0 || g.QueuedPoints != 0 {
		t.Errorf("gauges after finish: %+v", g)
	}
}

// TestRoundRobinFairness: with one slot and two jobs, dispatch alternates
// between the jobs instead of finishing the first submission first.
func TestRoundRobinFairness(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{}) // each receive releases one run
	run := func(_ context.Context, pt experiments.Point) (json.RawMessage, bool, error) {
		mu.Lock()
		order = append(order, pt.Profile.Name)
		mu.Unlock()
		<-gate
		return json.RawMessage(`{}`), false, nil
	}
	m := manager(t, 1, run, nil)
	ja, err := m.Submit(testPoints("a", 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a's first point holds the slot, then submit b: every
	// remaining pick must alternate a, b, a, b...
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 1 })
	jb, err := m.Submit(testPoints("b", 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		gate <- struct{}{}
	}
	<-ja.Done()
	<-jb.Done()
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a-p0", "b-p0", "a-p1", "b-p1", "a-p2", "b-p2"}
	if len(order) != len(want) {
		t.Fatalf("ran %d points, want %d (%v)", len(order), len(want), order)
	}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestCancelFlushesPendingWithoutSlots: cancelling a job releases its
// running point via context and records the queued remainder as cancelled
// without consuming worker slots — the pool stays free for other jobs.
func TestCancelFlushesPendingWithoutSlots(t *testing.T) {
	started := make(chan struct{}, 16)
	run := func(ctx context.Context, _ experiments.Point) (json.RawMessage, bool, error) {
		started <- struct{}{}
		<-ctx.Done() // hold the slot until cancelled
		return nil, false, ctx.Err()
	}
	m := manager(t, 1, run, nil)
	j, err := m.Submit(testPoints("a", 4), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := j.Subscribe(0)
	<-started // first point occupies the only slot
	j.Cancel()
	points, done := drain(ch)
	if done == nil || done.State != StateCancelled {
		t.Fatalf("terminal status %+v", done)
	}
	if len(points) != 4 || done.Cancelled != 4 {
		t.Fatalf("recorded %d points, %d cancelled; want 4 and 4", len(points), done.Cancelled)
	}
	if len(started) != 0 {
		t.Errorf("%d extra points started after cancel", len(started))
	}
	// The slot pool must be fully released: a fresh job still runs.
	j2, err := m.Submit(testPoints("b", 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2.Cancel()
	<-j2.Done()
}

// TestSubscribeResume: a late subscriber with a Status-provided offset sees
// only the events a first stream missed, and a subscriber to a finished job
// gets an immediate terminal event.
func TestSubscribeResume(t *testing.T) {
	release := make(chan struct{})
	run := func(_ context.Context, _ experiments.Point) (json.RawMessage, bool, error) {
		<-release
		return json.RawMessage(`{"ok":true}`), false, nil
	}
	m := manager(t, 1, run, nil)
	j, err := m.Submit(testPoints("a", 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	waitFor(t, func() bool { return j.Status(false).NextEvent == 1 })

	st := j.Status(false)
	ch, _ := j.Subscribe(st.NextEvent)
	release <- struct{}{}
	release <- struct{}{}
	points, done := drain(ch)
	if len(points) != 2 {
		t.Fatalf("resumed stream delivered %d events, want 2", len(points))
	}
	if done == nil || done.State != StateDone || done.Completed != 3 {
		t.Fatalf("terminal status %+v", done)
	}

	late, _ := j.Subscribe(j.Status(false).NextEvent)
	points, done = drain(late)
	if len(points) != 0 || done == nil || done.State != StateDone {
		t.Fatalf("post-finish subscription: %d events, done %+v", len(points), done)
	}
	full, _ := j.Subscribe(0)
	points, _ = drain(full)
	if len(points) != 3 {
		t.Fatalf("full replay delivered %d events, want 3", len(points))
	}
}

// TestDetachedSubscriberDoesNotStallJob: a subscriber that stops reading
// and detaches leaves the job to finish for everyone else.
func TestDetachedSubscriberDoesNotStallJob(t *testing.T) {
	m := manager(t, 2, okRun("x"), nil)
	j, err := m.Submit(testPoints("a", 6), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop := j.Subscribe(0)
	stop() // reader never drains ch
	_ = ch
	other, _ := j.Subscribe(0)
	points, done := drain(other)
	if len(points) != 6 || done == nil || done.State != StateDone {
		t.Fatalf("surviving stream: %d events, done %+v", len(points), done)
	}
}

func TestSubmitLimitsAndErrors(t *testing.T) {
	release := make(chan struct{})
	run := func(_ context.Context, _ experiments.Point) (json.RawMessage, bool, error) {
		<-release
		return json.RawMessage(`{}`), false, nil
	}
	m := manager(t, 1, run, func(c *Config) { c.MaxJobs = 1 })
	if _, err := m.Submit(nil, SubmitOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	j, err := m.Submit(testPoints("a", 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testPoints("b", 1), SubmitOptions{}); !errors.Is(err, ErrBusy) {
		t.Errorf("over-cap submit: %v, want ErrBusy", err)
	}
	close(release)
	<-j.Done()
	if _, err := m.Submit(testPoints("c", 1), SubmitOptions{}); err != nil {
		t.Errorf("submit after finish: %v", err)
	}
}

func TestSubmitAfterParentEndsIsRefused(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := New(Config{Slots: make(chan struct{}, 1), Run: okRun("x"), Parent: ctx})
	cancel()
	if _, err := m.Submit(testPoints("a", 1), SubmitOptions{}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after parent end: %v, want ErrDraining", err)
	}
	waitGoroutines(t)
}

// TestFailedPointsAreRecordedAndClassified: run errors become per-point
// failures with the classifier's kind; the job still completes.
func TestFailedPointsAreRecordedAndClassified(t *testing.T) {
	boom := errors.New("boom")
	run := func(_ context.Context, pt experiments.Point) (json.RawMessage, bool, error) {
		if pt.Profile.Name == "a-p1" {
			return nil, false, boom
		}
		return json.RawMessage(`{}`), false, nil
	}
	m := manager(t, 2, run, func(c *Config) {
		c.Classify = func(error) string { return "invariant" }
	})
	j, err := m.Submit(testPoints("a", 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := j.Subscribe(0)
	points, done := drain(ch)
	if done.State != StateDone || done.Completed != 2 || done.Failed != 1 {
		t.Fatalf("terminal status %+v", done)
	}
	for _, pr := range points {
		if pr.Index == 1 && (pr.Kind != "invariant" || pr.Error != "boom") {
			t.Errorf("failed point classified as %q (%q)", pr.Kind, pr.Error)
		}
	}
}

// TestRetentionEvictsOldestFinished: finished jobs stay resolvable up to
// the retention bound, then the oldest drops to a miss.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	m := manager(t, 2, okRun("x"), func(c *Config) { c.Retain = 2 })
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(testPoints(fmt.Sprintf("j%d", i), 1), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID)
	}
	if m.Get(ids[0]) != nil {
		t.Error("oldest finished job not evicted")
	}
	if m.Get(ids[1]) == nil || m.Get(ids[2]) == nil {
		t.Error("retained jobs evicted")
	}
}

// TestCachedPointsCounted: the cached flag from Run lands on the event and
// the job's CacheHits counter.
func TestCachedPointsCounted(t *testing.T) {
	run := func(_ context.Context, _ experiments.Point) (json.RawMessage, bool, error) {
		return json.RawMessage(`{}`), true, nil
	}
	m := manager(t, 2, run, nil)
	j, err := m.Submit(testPoints("a", 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := j.Subscribe(0)
	points, done := drain(ch)
	if done.CacheHits != 3 {
		t.Errorf("cache hits %d, want 3", done.CacheHits)
	}
	for _, pr := range points {
		if !pr.Cached {
			t.Errorf("point %d not marked cached", pr.Index)
		}
	}
}

// TestPointTimeout: a per-point deadline bounds each run without killing
// the job.
func TestPointTimeout(t *testing.T) {
	run := func(ctx context.Context, pt experiments.Point) (json.RawMessage, bool, error) {
		if pt.Profile.Name == "a-p0" {
			<-ctx.Done()
			return nil, false, ctx.Err()
		}
		return json.RawMessage(`{}`), false, nil
	}
	m := manager(t, 2, run, nil)
	j, err := m.Submit(testPoints("a", 2), SubmitOptions{PointTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := j.Subscribe(0)
	points, done := drain(ch)
	if done.Completed != 1 || done.Cancelled != 1 {
		t.Fatalf("terminal status %+v", done)
	}
	for _, pr := range points {
		if pr.Index == 0 && pr.Kind != "deadline" {
			t.Errorf("timed-out point classified as %q", pr.Kind)
		}
	}
}

// TestRoundMs pins the rounding of point and run wall times to the nearest
// millisecond: 2.9 ms reports 3, where truncation reported 2.
func TestRoundMs(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int64
	}{
		{2900 * time.Microsecond, 3},
		{2400 * time.Microsecond, 2},
		{2500 * time.Microsecond, 3},
		{400 * time.Microsecond, 0},
		{0, 0},
	} {
		if got := RoundMs(c.d); got != c.want {
			t.Errorf("RoundMs(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
