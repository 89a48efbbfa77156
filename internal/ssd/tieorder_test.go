package ssd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"idaflash/internal/workload"
)

// tieTrace is a trace whose arrivals fall exactly on multiples of the
// refresh-scan interval, in groups of one to four at one instant, with gaps
// both shorter and longer than the interval: so an arrival and a scan tick
// often share an instant, and which of them the engine runs first depends
// on which was scheduled first.
func tieTrace(interval time.Duration) *workload.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := &workload.Trace{Name: "tie-order"}
	at := time.Duration(0)
	for len(tr.Requests) < 1500 {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			size := 8192 * (1 + rng.Intn(6))
			tr.Requests = append(tr.Requests, workload.Request{
				At:     at,
				Offset: int64(rng.Intn(480)) * 8192,
				Size:   size,
				Read:   rng.Intn(3) != 0,
			})
		}
		// Gaps of zero to three intervals: a tick and an arrival due
		// at one instant then tie in either scheduling order.
		at += time.Duration(rng.Intn(4)) * interval
	}
	return tr
}

// tieOrderDigest is the SHA-256 of the JSON Results of the tie-order trace
// on the IDA-E20 test device, pinned from the engine that interleaved every
// FTL call with its timing on one goroutine.
const tieOrderDigest = "6af940b8a3c7aa2b5e1dd196524d0aa674692ddbb01900a6657d7468cf2c88c7"

// TestTieOrderPinned replays the tie-order trace under GOMAXPROCS 1, inline,
// and 2, where the FTL stage runs on its own goroutine: arrivals and scan
// ticks due at one instant must run in scheduling order however the replay
// is split across goroutines, so both runs give the pinned Results.
func TestTieOrderPinned(t *testing.T) {
	for _, c := range []struct {
		procs     int
		pipelines uint64
	}{{1, 0}, {2, 1}} {
		procs := c.procs
		s, err := New(testConfig(true, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		var res Results
		if n := underProcs(procs, func() { res, err = s.Run(tieTrace(s.Config().RefreshScanInterval), RunOptions{}) }); n != c.pipelines {
			t.Errorf("GOMAXPROCS %d: %d replays pipelined, want %d", procs, n, c.pipelines)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.FTL.Refreshes == 0 || res.FTL.GCJobs == 0 {
			t.Fatalf("GOMAXPROCS %d: the trace ran no refresh (%d) or no GC (%d)", procs, res.FTL.Refreshes, res.FTL.GCJobs)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tieOrderDigest {
			t.Errorf("GOMAXPROCS %d: Results digest %s, want %s (events %d, mean read %v)",
				procs, got, tieOrderDigest, res.Events, res.MeanReadResponse)
		}
	}
}
