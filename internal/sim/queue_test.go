package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestWaiterQueueFIFO checks ordering across wrap-around: interleaved pushes
// and pops that repeatedly cross the ring boundary must still come out in
// insertion order.
func TestWaiterQueueFIFO(t *testing.T) {
	var q waiterQueue
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 5000; step++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			q.Push(waiter{hold: time.Duration(next)})
			next++
		} else {
			if got := q.Front().hold; got != time.Duration(expect) {
				t.Fatalf("step %d: Front = %d, want %d", step, got, expect)
			}
			if got := q.Pop().hold; got != time.Duration(expect) {
				t.Fatalf("step %d: popped %d, want %d", step, got, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop().hold; got != time.Duration(expect) {
			t.Fatalf("drain: popped %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d waiters, pushed %d", expect, next)
	}
}

// TestWaiterQueueBoundedGrowth is the regression test for the old
// head-shifting queue: under sustained push/pop churn at a bounded depth,
// the backing array must stop growing once it covers the peak depth, instead
// of reallocating or shifting forever.
func TestWaiterQueueBoundedGrowth(t *testing.T) {
	var q waiterQueue
	const depth = 5
	for i := 0; i < depth; i++ {
		q.Push(waiter{})
	}
	capAfterPeak := len(q.buf)
	for i := 0; i < 100000; i++ {
		q.Push(waiter{})
		q.Pop()
	}
	if len(q.buf) != capAfterPeak {
		t.Fatalf("backing array grew under churn: cap %d -> %d", capAfterPeak, len(q.buf))
	}
	if q.Len() != depth {
		t.Fatalf("queue depth drifted: %d, want %d", q.Len(), depth)
	}
}

// TestWaiterQueuePopZeroesSlot guards against retaining completed callbacks
// in vacated ring slots.
func TestWaiterQueuePopZeroesSlot(t *testing.T) {
	var q waiterQueue
	q.Push(waiter{op: funcAction(func() {})})
	q.Pop()
	for i := range q.buf {
		if q.buf[i].op != nil {
			t.Fatalf("slot %d retains a callback after Pop", i)
		}
	}
}
