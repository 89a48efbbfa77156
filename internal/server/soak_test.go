package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestDistinctPointsKeepHeapFlat is the memory soak: a long-lived server
// asked for ever more distinct points must stop growing once its bounded
// caches are full. Every point runs a real simulation through New's
// production run path. The points share one profile and request budget and
// differ only in error rate, which the trace and snapshot keys leave out,
// so only the result layer sees new keys — any per-point retention beyond
// the result store's bound shows up as heap growth.
func TestDistinctPointsKeepHeapFlat(t *testing.T) {
	const (
		warm   = 600  // past the result store's 512-entry bound
		points = 1600 // warm + 1000 measured points
		// maxGrowth bounds the post-GC heap growth per measured point.
		// Retaining each point's Results (latency histograms and scalars)
		// costs about 10 KB at this budget, so a per-point leak of any run
		// memo trips it.
		maxGrowth = 4 << 10
		clients   = 4
	)
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(i int) error {
		body := fmt.Sprintf(`{"profile":"usr_1","requests":300,"system":{"ida":true,"error_rate":%v}}`, 0.2+float64(i)*1e-6)
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("point %d: status %d: %s", i, resp.StatusCode, b)
		}
		return nil
	}
	run := func(from, to int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := from + c; i < to; i += clients {
					if err := post(i); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	run(0, warm)
	before := heap()
	run(warm, points)
	after := heap()

	st := s.results.Stats()
	if st.Misses != points || st.Entries != 512 {
		t.Fatalf("result store holds %d entries after %d misses, want %d distinct points over a full 512-entry LRU", st.Entries, st.Misses, points)
	}
	growth := int64(after) - int64(before)
	perPoint := growth / (points - warm)
	t.Logf("heap %d -> %d bytes over %d points: %d bytes/point", before, after, points-warm, perPoint)
	if perPoint > maxGrowth {
		t.Errorf("heap grew %d bytes per distinct point (bound %d): something retains every point", perPoint, maxGrowth)
	}
}
