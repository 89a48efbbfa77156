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

// waiter is one queued acquisition: the service class, the enqueue instant,
// the hold duration and the completion Action (nil when there is none).
type waiter struct {
	prio     Priority
	enqueued Time
	hold     time.Duration
	op       Action
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

// waitQueues is the wait queue of one resource under its policy: one FIFO
// ring per service class, except under FIFO, where every waiter shares
// ring 0 in arrival order. It is deterministic (no map iteration, no
// wall-clock reads), so simulations stay bit-for-bit reproducible.
type waitQueues struct {
	policy  Policy
	maxWait time.Duration // age-aware starvation bound
	q       [numPriorities]waiterQueue
	n       int
}

// reset empties the rings for reuse under cfg, keeping their backing
// storage so a pooled resource starts its next run without reallocating.
// cfg must be valid (callers validate it up front); an unknown policy is a
// programming error and panics.
func (s *waitQueues) reset(cfg SchedulerConfig) {
	p, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		panic(err)
	}
	s.policy, s.maxWait = p, cfg.MaxWait
	if p == PolicyAgeAware && s.maxWait == 0 {
		s.maxWait = DefaultAgeAwareMaxWait
	}
	for i := range s.q {
		s.q[i].reset()
	}
	s.n = 0
}

// push enqueues a waiter that could not be served immediately.
func (s *waitQueues) push(w waiter) {
	i := w.prio
	if s.policy == PolicyFIFO {
		i = 0
	}
	s.q[i].Push(w)
	s.n++
}

// pop removes and returns the waiter to serve next at instant now; the
// queues must not be empty. Read-first serves the highest non-empty class.
// Age-aware first serves an over-age head of a lower class (host write or
// background): the oldest such head wins, ties going to the higher class.
func (s *waitQueues) pop(now Time) waiter {
	s.n--
	if s.policy == PolicyAgeAware {
		aged := Priority(-1)
		for p := PrioHostWrite; p < numPriorities; p++ {
			if s.q[p].Len() == 0 {
				continue
			}
			head := s.q[p].Front()
			if now-head.enqueued < s.maxWait {
				continue
			}
			if aged < 0 || head.enqueued < s.q[aged].Front().enqueued {
				aged = p
			}
		}
		if aged >= 0 {
			return s.q[aged].Pop()
		}
	}
	// FIFO keeps every waiter in ring 0, so this serves its head.
	p := 0
	for s.q[p].Len() == 0 {
		p++
	}
	return s.q[p].Pop()
}
