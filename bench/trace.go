package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// op; parent is the id of the span that caused this one (0 for a root).
type span struct {
	name       string
	start, end time.Time
	id, parent int64
	op         int64
}

// recorder keeps a traced pass's spans in memory; they are written out
// when the benchmark ends. A nil recorder records nothing, so untraced
// passes share the traced code path at the cost of a nil check.
type recorder struct {
	workload string
	ids      atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder { return &recorder{workload: workload} }

// newID reserves a span id, so children can name their parent before the
// parent span ends.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (r *recorder) add(name string, start, end time.Time, id, parent, op int64) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, id: id, parent: parent, op: op})
	r.mu.Unlock()
	return id
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, op int64, f func()) {
	start := time.Now()
	f()
	r.add(name, start, time.Now(), 0, parent, op)
}

// medianMs is the median duration of the spans with the given name.
func (r *recorder) medianMs(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ds []float64
	for _, s := range r.spans {
		if s.name == name {
			ds = append(ds, ms(s.end.Sub(s.start)))
		}
	}
	return median(ds)
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func (r *recorder) selfTimes() map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		covered := time.Duration(0)
		cur := s.start
		for _, k := range kids {
			from, to := k.start, k.end
			if from.Before(cur) {
				from = cur
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		self[s.id] = s.end.Sub(s.start) - covered
	}
	return self
}

// printSelfTimes writes the per-layer self-time table: for each span name,
// how many spans, their median duration, and their summed self time.
func (r *recorder) printSelfTimes(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := r.selfTimes()
	type row struct {
		name  string
		durs  []float64
		total time.Duration
	}
	rows := map[string]*row{}
	var all time.Duration
	for _, s := range r.spans {
		rw := rows[s.name]
		if rw == nil {
			rw = &row{name: s.name}
			rows[s.name] = rw
		}
		rw.durs = append(rw.durs, ms(s.end.Sub(s.start)))
		rw.total += self[s.id]
		all += self[s.id]
	}
	list := make([]*row, 0, len(rows))
	for _, rw := range rows {
		list = append(list, rw)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].total > list[j].total })
	fmt.Fprintf(w, "-- self time by span (%s, traced pass)\n", r.workload)
	fmt.Fprintf(w, "%-24s %8s %12s %12s %7s\n", "span", "count", "median_ms", "self_ms", "self%")
	for _, rw := range list {
		share := 0.0
		if all > 0 {
			share = 100 * float64(rw.total) / float64(all)
		}
		fmt.Fprintf(w, "%-24s %8d %12.4f %12.2f %7.1f\n", rw.name, len(rw.durs), median(rw.durs), ms(rw.total), share)
	}
}

// writeChrome writes every recorder's spans as Chrome trace JSON (the
// format chrome://tracing and Perfetto load): one complete event per span,
// one process per workload and one thread per operation.
func writeChrome(path string, recs []*recorder) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	var events []event
	var t0 time.Time
	for _, r := range recs {
		for _, s := range r.spans {
			if t0.IsZero() || s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	for pid, r := range recs {
		for _, s := range r.spans {
			events = append(events, event{
				Name: s.name, Ph: "X",
				Ts:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
				Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				Pid: pid + 1, Tid: s.op,
				Args: map[string]int64{"id": s.id, "parent": s.parent},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
