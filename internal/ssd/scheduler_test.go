package ssd

import (
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/workload"
)

// singleDieConfig funnels everything through one channel and one die so the
// scheduling policy is the only thing deciding service order.
func singleDieConfig(policy sim.Policy) Config {
	return Config{
		Geometry: flash.Geometry{
			Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
			BlocksPerPlane: 24, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
		},
		Timing:              flash.PaperTLCTiming(),
		FTL:                 ftl.Options{Seed: 7},
		RefreshScanInterval: time.Minute,
		Scheduler:           policy,
		Seed:                7,
	}
}

// readBehindWriteBurst submits a burst of writes at t=0 and one read at
// t=400us — after every write's channel transfer has landed it in the die
// queue, so the die scheduler alone decides how long the read waits — and
// returns the read's response time under the policy.
func readBehindWriteBurst(t *testing.T, s *SSD) time.Duration {
	t.Helper()
	if _, err := s.FTL().Write(0, 0); err != nil {
		t.Fatal(err)
	}
	const writes = 8
	s.engine.After(0, func() {
		for i := int64(0); i < writes; i++ {
			s.submit(workload.Request{At: 0, Offset: (8 + i) * 8192, Size: 8192, Read: false})
		}
	})
	s.engine.After(400*time.Microsecond, func() {
		s.submit(workload.Request{At: 400 * time.Microsecond, Offset: 0, Size: 8192, Read: true})
	})
	s.engine.Run()
	if s.readReqs != 1 || s.writeReqs != writes {
		t.Fatalf("served %d reads / %d writes", s.readReqs, s.writeReqs)
	}
	return s.readResp.Mean()
}

func burstDevice(t *testing.T, policy sim.Policy) *SSD {
	t.Helper()
	s, err := New(singleDieConfig(policy))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The behavioral contract of the three policies, observed end to end:
// read-first lets the read overtake the whole burst, FIFO makes it wait for
// every write, and age-aware stays near read-first while the writes are
// younger than the starvation bound.
func TestSchedulerPoliciesOrderReadBehindWriteBurst(t *testing.T) {
	rf := readBehindWriteBurst(t, burstDevice(t, sim.PolicyReadFirst))
	fifo := readBehindWriteBurst(t, burstDevice(t, sim.PolicyFIFO))
	aa := readBehindWriteBurst(t, burstDevice(t, sim.PolicyAgeAware))
	prog := flash.PaperTLCTiming().Program

	// FIFO does not reorder: the read pays for all eight writes.
	if fifo < 6*prog {
		t.Errorf("FIFO read response %v suspiciously low (no queueing behind burst?)", fifo)
	}
	if fifo <= rf {
		t.Errorf("FIFO read %v not slower than read-first %v", fifo, rf)
	}
	// Age-aware bounds the read's wait behind the burst: far below FIFO,
	// and no better than the pure read-first policy.
	if aa > fifo/3 {
		t.Errorf("age-aware read response %v not materially below FIFO %v", aa, fifo)
	}
	if aa < rf {
		t.Errorf("age-aware read %v beat read-first %v, impossible", aa, rf)
	}
	// Read-first: the read waits at most one in-service program.
	if rf > prog+2*time.Millisecond {
		t.Errorf("read-first read response %v, want ~ one program", rf)
	}
}

// With a tiny starvation bound the aged writes overtake the read, so the
// bound is really what separates age-aware from read-first.
func TestAgeAwareBoundActuallyPromotesWrites(t *testing.T) {
	cfg := singleDieConfig(sim.PolicyAgeAware)
	cfg.SchedulerMaxWait = 10 * time.Microsecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight := readBehindWriteBurst(t, s)
	loose := readBehindWriteBurst(t, burstDevice(t, sim.PolicyAgeAware))
	if tight <= loose {
		t.Errorf("tight bound read response %v not above default-bound %v", tight, loose)
	}
}

// Same seed + same trace must give bit-identical Results under every
// scheduler, independently: the goroutine-free engine plus deterministic
// schedulers guarantee reproducibility regardless of policy.
func TestSchedulerDeterminismPerPolicy(t *testing.T) {
	tr := testTrace(t, "sched-det", 2000, 0.85)
	for _, policy := range sim.Policies() {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			run := func() Results {
				cfg := testConfig(true, 0.2)
				cfg.Scheduler = policy
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(tr, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Scalars() != b.Scalars() {
				t.Errorf("%s: identical runs diverged:\n%+v\n%+v", policy, a, b)
			}
		})
	}
}

// The default (read-first) scheduler must reproduce seed behavior exactly:
// an explicitly-configured read-first run equals a zero-config run.
func TestDefaultSchedulerIsReadFirst(t *testing.T) {
	tr := testTrace(t, "default-sched", 1500, 0.9)
	run := func(policy sim.Policy) Results {
		cfg := testConfig(true, 0.2)
		cfg.Scheduler = policy
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(""), run(sim.PolicyReadFirst); a.Scalars() != b.Scalars() {
		t.Errorf("empty policy diverged from explicit read-first:\n%+v\n%+v", a, b)
	}
}

func TestBadSchedulerRejected(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.Scheduler = "round-robin"
	if _, err := New(cfg); err == nil {
		t.Error("unknown scheduler accepted")
	}
	cfg = testConfig(false, 0)
	cfg.SchedulerMaxWait = -time.Second
	if _, err := New(cfg); err == nil {
		t.Error("negative MaxWait accepted")
	}
}
