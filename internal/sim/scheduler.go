package sim

import (
	"fmt"
	"time"
)

// Policy names a resource scheduling discipline. The zero value selects
// read-first, the paper's policy.
type Policy string

// Built-in policies.
const (
	// PolicyReadFirst serves the highest priority class first and FIFO
	// within a class: host reads overtake host writes, both overtake
	// background work. This is the paper's discipline and the default.
	PolicyReadFirst Policy = "read-first"
	// PolicyFIFO serves strictly in arrival order, ignoring class.
	PolicyFIFO Policy = "fifo"
	// PolicyAgeAware behaves like read-first but promotes a lower-class
	// waiter once it has aged past a bound, so reads cannot starve writes
	// (or background work) indefinitely while writes still cannot make a
	// read wait behind a whole burst of them.
	PolicyAgeAware Policy = "age-aware"
)

// ParsePolicy validates a policy name; the empty string means read-first.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyReadFirst:
		return PolicyReadFirst, nil
	case PolicyFIFO:
		return PolicyFIFO, nil
	case PolicyAgeAware:
		return PolicyAgeAware, nil
	}
	return "", fmt.Errorf("sim: unknown scheduling policy %q (want %q, %q or %q)",
		s, PolicyReadFirst, PolicyFIFO, PolicyAgeAware)
}

// Policies lists the built-in policy names.
func Policies() []Policy {
	return []Policy{PolicyReadFirst, PolicyFIFO, PolicyAgeAware}
}

// Waiter is one queued acquisition as a Scheduler sees it: the service
// class, the enqueue instant, and an opaque payload the Resource round-trips
// (the hold duration and the completion Action, nil when there is none).
type Waiter struct {
	Prio     Priority
	Enqueued Time
	hold     time.Duration
	op       Action
}

// Scheduler orders the waiters of one Resource. Implementations are
// per-resource and single-goroutine, like the engine itself; they must be
// deterministic (no map iteration, no wall-clock reads) so simulations stay
// bit-for-bit reproducible.
type Scheduler interface {
	// Push enqueues a waiter that could not be served immediately.
	Push(w Waiter)
	// Pop removes and returns the waiter to serve next at instant now.
	// ok is false when no waiter is queued.
	Pop(now Time) (w Waiter, ok bool)
	// Len returns the number of queued waiters.
	Len() int
	// Policy names the discipline, for diagnostics.
	Policy() Policy
	// Reset empties the queues for reuse, keeping their backing storage so
	// a pooled resource starts its next run without reallocating rings.
	Reset()
}

// SchedulerConfig selects and parameterizes a policy.
type SchedulerConfig struct {
	// Policy is the discipline; empty means read-first.
	Policy Policy
	// MaxWait bounds lower-class queueing delay under the age-aware
	// policy: once the oldest non-read waiter has waited this long it is
	// served before any read. Zero defaults to 10 ms (a few program
	// latencies). Ignored by the other policies.
	MaxWait time.Duration
}

// DefaultAgeAwareMaxWait is the starvation bound used when
// SchedulerConfig.MaxWait is zero: about four page programs.
const DefaultAgeAwareMaxWait = 10 * time.Millisecond

// Validate checks the config.
func (c SchedulerConfig) Validate() error {
	if _, err := ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	if c.MaxWait < 0 {
		return fmt.Errorf("sim: scheduler MaxWait %v must be non-negative", c.MaxWait)
	}
	return nil
}

// New builds a fresh scheduler instance. Each Resource needs its own
// instance, since schedulers hold the queue state. An unknown policy is a
// config error, returned rather than panicked so a service embedding the
// simulator can reject a bad request instead of dying; device constructors
// (ssd.New) validate the config up-front and surface this before any
// resource is built.
func (c SchedulerConfig) New() (Scheduler, error) {
	p, err := ParsePolicy(string(c.Policy))
	if err != nil {
		return nil, err
	}
	switch p {
	case PolicyFIFO:
		return &fifoScheduler{}, nil
	case PolicyAgeAware:
		maxWait := c.MaxWait
		if maxWait == 0 {
			maxWait = DefaultAgeAwareMaxWait
		}
		return &ageAwareScheduler{maxWait: maxWait}, nil
	default:
		return &readFirstScheduler{}, nil
	}
}

// readFirstScheduler keeps one FIFO queue per priority class and always
// serves the highest non-empty class, reproducing the original hard-wired
// discipline bit for bit.
type readFirstScheduler struct {
	queues [numPriorities]waiterQueue
}

func (s *readFirstScheduler) Policy() Policy { return PolicyReadFirst }

func (s *readFirstScheduler) Push(w Waiter) {
	s.queues[w.Prio].Push(w)
}

func (s *readFirstScheduler) Pop(Time) (Waiter, bool) {
	for p := Priority(0); p < numPriorities; p++ {
		if s.queues[p].Len() > 0 {
			return s.queues[p].Pop(), true
		}
	}
	return Waiter{}, false
}

func (s *readFirstScheduler) Len() int {
	n := 0
	for i := range s.queues {
		n += s.queues[i].Len()
	}
	return n
}

func (s *readFirstScheduler) Reset() {
	for i := range s.queues {
		s.queues[i].reset()
	}
}

// fifoScheduler serves strictly in arrival order.
type fifoScheduler struct {
	queue waiterQueue
}

func (s *fifoScheduler) Policy() Policy { return PolicyFIFO }
func (s *fifoScheduler) Push(w Waiter)  { s.queue.Push(w) }
func (s *fifoScheduler) Len() int       { return s.queue.Len() }
func (s *fifoScheduler) Reset()         { s.queue.reset() }

func (s *fifoScheduler) Pop(Time) (Waiter, bool) {
	if s.queue.Len() == 0 {
		return Waiter{}, false
	}
	return s.queue.Pop(), true
}

// ageAwareScheduler is read-first with a starvation bound: when the oldest
// waiter of a lower class (host write or background) has been queued longer
// than maxWait, that waiter is served before any read. Among over-age
// waiters the oldest wins, ties going to the higher class, which keeps the
// pick deterministic.
type ageAwareScheduler struct {
	queues  [numPriorities]waiterQueue
	maxWait time.Duration
}

func (s *ageAwareScheduler) Policy() Policy { return PolicyAgeAware }

func (s *ageAwareScheduler) Push(w Waiter) {
	s.queues[w.Prio].Push(w)
}

func (s *ageAwareScheduler) Pop(now Time) (Waiter, bool) {
	// Heads of each class queue are the oldest of their class; an aged
	// head preempts the read-first order.
	aged := Priority(-1)
	for p := PrioHostWrite; p < numPriorities; p++ {
		if s.queues[p].Len() == 0 {
			continue
		}
		head := s.queues[p].Front()
		if now-head.Enqueued < s.maxWait {
			continue
		}
		if aged < 0 || head.Enqueued < s.queues[aged].Front().Enqueued {
			aged = p
		}
	}
	if aged >= 0 {
		return s.queues[aged].Pop(), true
	}
	for p := Priority(0); p < numPriorities; p++ {
		if s.queues[p].Len() > 0 {
			return s.queues[p].Pop(), true
		}
	}
	return Waiter{}, false
}

func (s *ageAwareScheduler) Len() int {
	n := 0
	for i := range s.queues {
		n += s.queues[i].Len()
	}
	return n
}

func (s *ageAwareScheduler) Reset() {
	for i := range s.queues {
		s.queues[i].reset()
	}
}
