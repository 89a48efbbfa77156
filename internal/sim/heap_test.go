package sim

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refEvent / refHeap is a container/heap reference implementation of the
// event queue with the same (at, seq) ordering contract as the engine's
// inlined heap. The property test below drives both through identical
// randomized schedules and requires identical execution orders.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refEngine is a minimal scheduler built on container/heap, used only as a
// test oracle.
type refEngine struct {
	now Time
	h   refHeap
	seq uint64
}

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	e.seq++
	heap.Push(&e.h, &refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

func (e *refEngine) Run() error {
	for len(e.h) > 0 {
		ev := heap.Pop(&e.h).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
	return nil
}

// simClock abstracts the two engines so the same random script can drive
// both.
type simClock interface {
	At(t Time, fn func())
	After(d time.Duration, fn func())
	Now() Time
	Run() error
}

func (e *refEngine) Now() Time { return e.now }

// trace records one executed event: its label and the clock when it ran.
type traceEntry struct {
	label int
	at    Time
}

// actionFunc adapts a func() to the Action interface so the script can
// exercise the engine's AtAction/AfterAction paths alongside At.
type actionFunc struct{ f func() }

func (a *actionFunc) Run() { a.f() }

// runScript drives a scheduler through a deterministic randomized workload:
// root events at random times (with deliberate time collisions to stress the
// FIFO tie-break), callbacks that schedule further events from within the
// run, a third of them zero-delay children that queue behind the events
// already due now. useActions routes labels through the engine's three
// scheduling calls in turn (AtAction, AfterAction, At) when the scheduler
// is the real Engine.
func runScript(c simClock, seed int64, useActions bool) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var got []traceEntry
	nextLabel := 0
	eng, _ := c.(*Engine)

	var spawn func(depth int) func()
	schedule := func(d time.Duration, fn func(), label int) {
		switch {
		case useActions && eng != nil && label%3 == 0:
			eng.AtAction(c.Now()+d, &actionFunc{f: fn})
		case useActions && eng != nil && label%3 == 1:
			eng.AfterAction(d, &actionFunc{f: fn})
		default:
			c.At(c.Now()+d, fn)
		}
	}
	spawn = func(depth int) func() {
		label := nextLabel
		nextLabel++
		return func() {
			got = append(got, traceEntry{label: label, at: c.Now()})
			if depth >= 4 {
				return
			}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				// Quantized delays, zero a third of the time, force
				// equal-time events: same-instant children queue behind
				// events already due now, exercising the (at, seq)
				// tie-break among them.
				d := time.Duration(rng.Intn(3)) * 10 * time.Microsecond
				child := spawn(depth + 1)
				schedule(d, child, nextLabel-1)
			}
		}
	}
	for i := 0; i < 50; i++ {
		t := time.Duration(rng.Intn(20)) * 10 * time.Microsecond
		root := spawn(0)
		schedule(t, root, nextLabel-1)
	}
	c.Run()
	return got
}

// TestHeapMatchesContainerHeapReference is the event-queue property test:
// for many seeds, the engine (inlined heap plus same-instant lane) must
// execute the exact same events at the exact same times in the exact same
// order as a container/heap reference ordered by (at, seq), including FIFO
// ordering of equal-time events and zero-delay events scheduled from within
// callbacks.
func TestHeapMatchesContainerHeapReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		want := runScript(&refEngine{}, seed, false)
		eng := NewEngine()
		got := runScript(eng, seed, false)
		gotActs := runScript(NewEngine(), seed, true)
		if len(got) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, eng.Pending())
		}
		for name, g := range map[string][]traceEntry{"closures": got, "actions": gotActs} {
			if len(g) != len(want) {
				t.Fatalf("seed %d (%s): executed %d events, reference executed %d", seed, name, len(g), len(want))
			}
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("seed %d (%s): event %d = %+v, reference %+v", seed, name, i, g[i], want[i])
				}
			}
		}
	}
}

// TestLaneRunsAfterHeapEventsDueNow pins the ordering argument directly: an
// event scheduled for t from before t (heap) runs before one scheduled at t
// for t (lane), even though the lane event is already queued when the heap
// event's instant arrives.
func TestLaneRunsAfterHeapEventsDueNow(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() {
		order = append(order, "a")
		e.At(10, func() { order = append(order, "lane") })
	})
	e.At(10, func() { order = append(order, "b") })
	e.At(20, func() { order = append(order, "c") })
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,b,lane,c" {
		t.Fatalf("order = %s, want a,b,lane,c", got)
	}
}

// TestLanePendingAndRunUntilNow: lane events count as pending work, and
// draining the lane runs them without moving the clock.
func TestLanePendingAndRunUntilNow(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(5, func() {
		e.After(0, func() { ran++ })
		e.AfterAction(0, &actionFunc{f: func() { ran++ }})
		e.At(7, func() { ran++ })
	})
	e.Step() // runs the t=5 event, queueing two lane events and one future
	if e.Now() != 5 || e.Pending() != 3 {
		t.Fatalf("now=%v pending=%d, want 5 and 3", e.Now(), e.Pending())
	}
	e.Step()
	e.Step()
	if ran != 2 || e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("after draining the lane: ran=%d now=%v pending=%d, want 2, 5, 1", ran, e.Now(), e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 3 || e.Now() != 7 || e.Pending() != 0 {
		t.Fatalf("after Run: ran=%d now=%v pending=%d, want 3, 7, 0", ran, e.Now(), e.Pending())
	}
}

// TestPulseRearmsOnLaneWork: a pulse that finds only same-instant lane work
// queued still counts it as pending and re-arms.
func TestPulseRearmsOnLaneWork(t *testing.T) {
	e := NewEngine()
	ticks := 0
	laneRan := false
	// The t=10 event is scheduled before the pulse's first tick, so it runs
	// first and queues a lane event behind the tick.
	e.At(10, func() {
		e.At(10, func() { laneRan = true })
	})
	e.Pulse(10, func(Time) {
		ticks++
		if ticks == 1 && (e.Pending() != 1 || laneRan) {
			t.Errorf("first tick sees pending=%d laneRan=%v, want only the lane event", e.Pending(), laneRan)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The first tick re-arms on the lane event; the second finds nothing.
	if ticks != 2 || !laneRan {
		t.Fatalf("ticks=%d laneRan=%v, want 2 and true", ticks, laneRan)
	}
}

// TestHeapPopZeroesSlot guards the no-retention property: after events run,
// the event array's backing storage may keep no callback references alive,
// neither after future events drain nor after events due now drain.
func TestHeapPopZeroesSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 16; i++ {
		e.At(time.Duration(i)*time.Microsecond, func() {})
	}
	grown := e.events[:cap(e.events)]
	e.Run()
	for i := range grown {
		if grown[i].op != nil {
			t.Fatalf("slot %d retains a callback after drain: %+v", i, grown[i])
		}
	}
	for i := 0; i < 16; i++ {
		e.After(0, func() {})
	}
	grown = e.events[:cap(e.events)]
	e.Run()
	for i := range grown {
		if grown[i].op != nil {
			t.Fatalf("slot %d retains a callback after events due now drained", i)
		}
	}
}

// TestHeapPastSchedulingPanics pins the causality guard.
func TestHeapPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling before now did not panic")
			}
		}()
		e.At(5*time.Microsecond, func() {})
	})
	e.Run()
}
