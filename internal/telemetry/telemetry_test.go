package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// record builds a recorder with a few committed spans.
func record(t *testing.T, cfg Config, n int) *Recorder {
	t.Helper()
	r := New(cfg)
	for i := 0; i < n; i++ {
		at := ms(int64(i))
		sp := r.StartRequest(at, i%2 == 0, 4096)
		sp.AddPhase(StageQueue, at+ms(1), at+ms(2))
		sp.AddPhase(StageFlash, at+ms(2), at+ms(3))
		sp.AddPhase(StageECC, at+ms(3), at+ms(4))
		r.FinishRequest(sp, at+ms(4))
	}
	return r
}

func TestSpanLifecycleAndOrdering(t *testing.T) {
	r := record(t, Config{}, 5)
	e := r.Export()
	if len(e.Spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(e.Spans))
	}
	for i, sp := range e.Spans {
		if sp.ID != uint64(i+1) {
			t.Errorf("span %d: ID = %d, want %d", i, sp.ID, i+1)
		}
		if sp.Arrived > sp.Completed {
			t.Errorf("span %d: completed %v before arrival %v", i, sp.Completed, sp.Arrived)
		}
		// The three explicit phases, in the order they were added.
		if len(sp.Phases) != 3 {
			t.Fatalf("span %d: phases = %d, want 3", i, len(sp.Phases))
		}
		if sp.Phases[0].Stage != StageQueue {
			t.Errorf("span %d: first phase %v, want queue", i, sp.Phases[0].Stage)
		}
		for j, ph := range sp.Phases {
			if ph.End < ph.Start {
				t.Errorf("span %d phase %d: end %v before start %v", i, j, ph.End, ph.Start)
			}
		}
	}
}

func TestSamplingEveryNth(t *testing.T) {
	r := New(Config{SampleEvery: 3})
	var kept int
	for i := 0; i < 10; i++ {
		sp := r.StartRequest(ms(int64(i)), true, 512)
		if sp != nil {
			kept++
		}
		r.FinishRequest(sp, ms(int64(i)+1))
	}
	if kept != 4 { // arrivals 1, 4, 7, 10
		t.Fatalf("sampled %d spans of 10 with SampleEvery=3, want 4", kept)
	}
	if got := r.Export().Spans; len(got) != 4 {
		t.Fatalf("exported %d spans, want 4", len(got))
	}
}

func TestRingBufferOverwritesOldest(t *testing.T) {
	r := record(t, Config{SpanCapacity: 4}, 10)
	e := r.Export()
	if len(e.Spans) != 4 {
		t.Fatalf("spans = %d, want capacity 4", len(e.Spans))
	}
	if e.DroppedSpans != 6 {
		t.Fatalf("dropped = %d, want 6", e.DroppedSpans)
	}
	// Oldest-first order of the surviving newest spans: IDs 7..10.
	for i, sp := range e.Spans {
		if want := uint64(7 + i); sp.ID != want {
			t.Errorf("spans[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

// TestTraceRoundTrip exports spans as trace-event JSON and re-parses it,
// checking the schema Perfetto relies on: a traceEvents array of "X"
// events with name/ts/dur/pid/tid, plus process-name metadata.
func TestTraceRoundTrip(t *testing.T) {
	r := record(t, Config{Device: 2}, 3)
	var buf bytes.Buffer
	if err := r.Export().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	// 1 metadata + 3 spans * (1 request + 3 phases).
	if want := 1 + 3*4; len(doc.TraceEvents) != want {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), want)
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Fatalf("first event %+v, want process_name metadata", doc.TraceEvents[0])
	}
	stageNames := map[string]bool{"queue": true, "flash": true, "ecc": true}
	var lastRequestTs float64 = -1
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Pid != 2 {
			t.Errorf("event %q: pid = %d, want 2", ev.Name, ev.Pid)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Errorf("event %q: negative ts/dur (%v, %v)", ev.Name, ev.Ts, ev.Dur)
		}
		switch {
		case ev.Name == "read" || ev.Name == "write":
			if ev.Ts < lastRequestTs {
				t.Errorf("request slices out of arrival order: ts %v after %v", ev.Ts, lastRequestTs)
			}
			lastRequestTs = ev.Ts
		case !stageNames[ev.Name]:
			t.Errorf("unexpected slice name %q", ev.Name)
		}
	}
}

func TestCSVSchemaAndDeterminism(t *testing.T) {
	build := func() *Export {
		r := New(Config{MetricsInterval: ms(10)})
		r.Record(Sample{
			At: ms(10), HostInFlight: 3, HostQueued: 1,
			DiesBusy: 2, ChannelsBusy: 1, DieQueued: 4, ChanQueued: 2,
			DieMaxQueue: 6, ChanMaxQueue: 3, DieWait: ms(7), ChanWait: ms(2),
			DieBusy: ms(5), ChanBusy: ms(3),
			PerChannelBusy: []time.Duration{ms(1), ms(2)},
			FreeBlocks:     8, InUseBlocks: 4, IDABlocks: 1, IDAValidPages: 96,
			Activity: Activity{
				ReadPages: 2, Senses: 6, IDAReadPages: 1, WritePages: 1,
				GCJobs: 1, GCMoves: 7,
				Refreshes: 1, RefreshMoves: 3, AdjustedWLs: 2, IDARefreshes: 1,
			},
		})
		r.Record(Sample{At: ms(20), PerChannelBusy: []time.Duration{0, ms(4)}})
		return r.Export()
	}
	var a, b bytes.Buffer
	if err := build().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical recordings serialized differently")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Fatalf("row has %d fields, header has %d", got, len(header))
		}
	}
	// Spot-check the activity columns landed where the header says.
	idx := map[string]int{}
	for i, name := range header {
		idx[name] = i
	}
	row1 := strings.Split(lines[1], ",")
	for col, want := range map[string]string{
		"at_ns":          "10000000",
		"read_pages":     "2",
		"senses":         "6",
		"ida_read_pages": "1",
		"gc_moves":       "7",
		"adjusted_wls":   "2",
		"die_max_queue":  "6",
		"die_wait_ns":    "7000000",
		"ch1_busy_ns":    "2000000",
	} {
		i, ok := idx[col]
		if !ok {
			t.Fatalf("missing column %q", col)
		}
		if row1[i] != want {
			t.Errorf("column %s = %s, want %s", col, row1[i], want)
		}
	}
	// Each row carries only its own sample's activity.
	row2 := strings.Split(lines[2], ",")
	if row2[idx["read_pages"]] != "0" {
		t.Errorf("second row read_pages = %s, want 0", row2[idx["read_pages"]])
	}
}

func TestMergeExportsOrdersStreams(t *testing.T) {
	mk := func(dev int, base int64) *Export {
		r := New(Config{Device: dev, MetricsInterval: ms(10)})
		for i := int64(0); i < 3; i++ {
			sp := r.StartRequest(ms(base+10*i), true, 1024)
			r.FinishRequest(sp, ms(base+10*i+5))
			r.Record(Sample{At: ms(10 * (i + 1))})
		}
		return r.Export()
	}
	m := MergeExports(mk(1, 2), nil, mk(0, 0))
	if m.Device != -1 {
		t.Fatalf("merged device tag = %d, want -1", m.Device)
	}
	if len(m.Spans) != 6 || len(m.Samples) != 6 {
		t.Fatalf("merged %d spans / %d samples, want 6 / 6", len(m.Spans), len(m.Samples))
	}
	for i := 1; i < len(m.Spans); i++ {
		a, b := m.Spans[i-1], m.Spans[i]
		if a.Arrived > b.Arrived || (a.Arrived == b.Arrived && a.Device > b.Device) {
			t.Fatalf("spans unsorted at %d: %+v then %+v", i, a, b)
		}
	}
	for i := 1; i < len(m.Samples); i++ {
		a, b := m.Samples[i-1], m.Samples[i]
		if a.At > b.At || (a.At == b.At && a.Device > b.Device) {
			t.Fatalf("samples unsorted at %d: %+v then %+v", i, a, b)
		}
	}
	if MergeExports(nil, nil) != nil {
		t.Fatal("merging nothing should return nil")
	}
	single := mk(0, 0)
	if MergeExports(single, nil) != single {
		t.Fatal("merging one export should return it unchanged")
	}
}

// TestNilRecorderIsInert drives every hook through a nil recorder; the
// companion benchmark proves the path also does not allocate.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.StartRequest(0, true, 4096)
	if sp != nil {
		t.Fatal("nil recorder returned a span")
	}
	sp.AddPhase(StageFlash, 0, ms(1))
	r.FinishRequest(sp, ms(2))
	r.Record(Sample{})
	if r.Interval() != 0 {
		t.Fatal("nil recorder reported non-zero config")
	}
	if r.Export() != nil {
		t.Fatal("nil recorder exported something")
	}
}
