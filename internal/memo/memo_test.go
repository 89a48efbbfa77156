package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoSingleflight: concurrent callers of one key run fn exactly once and
// share its value; every caller but the computing one reports cached.
func TestDoSingleflight(t *testing.T) {
	c := New[string](16)
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	var cachedN atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, cached, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
				computes.Add(1)
				<-release
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("Do = %q, %v", v, err)
			}
			if cached {
				cachedN.Add(1)
			}
		}()
	}
	waitFor(t, "the first compute", func() bool { return computes.Load() == 1 })
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if n := cachedN.Load(); n != callers-1 {
		t.Errorf("%d callers reported cached, want %d", n, callers-1)
	}
	// A later call recalls the published value without computing.
	v, cached, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
		t.Error("published value recomputed")
		return "", nil
	})
	if v != "v" || !cached || err != nil {
		t.Errorf("recall = %q cached=%v err=%v", v, cached, err)
	}
}

// TestDoAbandonWakesWaiter: whether the computing caller fails, is
// cancelled or panics, its claim is abandoned — nothing is kept — and a
// waiter blocked on it wakes, re-claims the key, and computes for itself.
func TestDoAbandonWakesWaiter(t *testing.T) {
	boom := errors.New("boom")
	for _, mode := range []string{"error", "cancel", "panic"} {
		t.Run(mode, func(t *testing.T) {
			c := New[int](16)
			started := make(chan struct{})
			fail := make(chan struct{})
			firstDone := make(chan error, 1)
			go func() {
				defer func() {
					if v := recover(); v != nil {
						firstDone <- fmt.Errorf("panicked: %v", v)
					}
				}()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, _, err := c.Do(ctx, "k", func(ctx context.Context) (int, error) {
					close(started)
					<-fail
					switch mode {
					case "error":
						return 0, boom
					case "cancel":
						cancel()
						return 0, ctx.Err()
					}
					panic("compute bug")
				})
				firstDone <- err
			}()
			<-started

			waiter := make(chan int, 1)
			go func() {
				v, cached, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
					return 2, nil
				})
				if err != nil || cached {
					t.Errorf("waiter: cached=%v err=%v", cached, err)
				}
				waiter <- v
			}()
			time.Sleep(10 * time.Millisecond) // let the waiter block on the claim
			close(fail)

			err := <-firstDone
			switch mode {
			case "error":
				if !errors.Is(err, boom) {
					t.Errorf("first caller err = %v, want boom", err)
				}
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Errorf("first caller err = %v, want context.Canceled", err)
				}
			case "panic":
				if err == nil || err.Error() != "panicked: compute bug" {
					t.Errorf("panic was not re-raised to the caller: %v", err)
				}
			}
			select {
			case v := <-waiter:
				if v != 2 {
					t.Errorf("waiter got %d, want its own value 2", v)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter never woke after the claim was abandoned")
			}
		})
	}
}

// TestDoErrorNotCached: a failed compute leaves no entry, so the next call
// computes afresh instead of inheriting the failure.
func TestDoErrorNotCached(t *testing.T) {
	c := New[int](16)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed compute left %d entries", st.Entries)
	}
	v, cached, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || cached || err != nil {
		t.Fatalf("retry = %d cached=%v err=%v", v, cached, err)
	}
}

// TestClaimWaitHonorsContext: a waiter whose own context ends stops waiting
// with that context's error, without disturbing the claim it waited on.
func TestClaimWaitHonorsContext(t *testing.T) {
	c := New[string](16)
	_, f, err := c.Claim(context.Background(), "k")
	if f == nil || err != nil {
		t.Fatalf("first Claim: flight=%v err=%v", f != nil, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, g, err := c.Claim(ctx, "k"); g != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter: flight=%v err=%v, want DeadlineExceeded", g != nil, err)
	}
	f.Publish("late")
	v, g, err := c.Claim(context.Background(), "k")
	if v != "late" || g != nil || err != nil {
		t.Fatalf("after publish: %q flight=%v err=%v", v, g != nil, err)
	}
}

// TestLRUTouchOnHit: the bound evicts the least recently used published
// entry, where a hit counts as a use.
func TestLRUTouchOnHit(t *testing.T) {
	c := New[int](2)
	put := func(k string, v int) {
		t.Helper()
		if _, f, _ := c.Claim(context.Background(), k); f == nil {
			t.Fatalf("%s: unexpected hit", k)
		} else {
			f.Publish(v)
		}
	}
	hit := func(k string) bool {
		_, f, _ := c.Claim(context.Background(), k)
		if f != nil {
			f.Abandon()
		}
		return f == nil
	}
	put("a", 1)
	put("b", 2)
	if !hit("a") { // touch a: b becomes the eviction candidate
		t.Fatal("a missing before the bound was reached")
	}
	put("c", 3)
	if hit("b") {
		t.Error("b survived although it was least recently used")
	}
	if !hit("a") || !hit("c") {
		t.Error("a recently used entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction and 2 entries", st)
	}
}

// TestEvictionSparesInFlight: in-flight claims are outside the bound, so a
// burst of publishes never evicts them, and their waiters resolve.
func TestEvictionSparesInFlight(t *testing.T) {
	c := New[int](1)
	_, slow, _ := c.Claim(context.Background(), "slow")
	waited := make(chan int, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "slow", func(context.Context) (int, error) {
			t.Error("waiter recomputed an in-flight key")
			return 0, nil
		})
		if err != nil {
			t.Error(err)
		}
		waited <- v
	}()
	for i := 0; i < 5; i++ {
		if _, _, err := c.Do(context.Background(), fmt.Sprint("k", i), func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 4 {
		t.Fatalf("stats = %+v, want the in-flight claim plus one published entry, 4 evictions", st)
	}
	slow.Publish(42)
	if v := <-waited; v != 42 {
		t.Errorf("waiter got %d, want 42", v)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d after publish, want the bound of 1", st.Entries)
	}
}

// TestForgetInFlight: forgetting a claimed key drops it from the map, but
// the claim still resolves its waiters; the published value is not kept.
func TestForgetInFlight(t *testing.T) {
	c := New[int](16)
	_, f, _ := c.Claim(context.Background(), "k")
	waited := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", func(context.Context) (int, error) { return -1, nil })
		waited <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the claim
	c.Forget("k")
	f.Publish(5)
	if v := <-waited; v != 5 {
		t.Errorf("waiter got %d, want the forgotten claim's 5", v)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("forgotten claim was kept: %+v", st)
	}
	// Forget on a published entry drops it too.
	if _, _, err := c.Do(context.Background(), "p", func(context.Context) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Forget("p")
	if _, g, _ := c.Claim(context.Background(), "p"); g == nil {
		t.Error("forgotten entry still served")
	}
}

// TestResolveOnce: only the first Publish or Abandon of a flight counts.
func TestResolveOnce(t *testing.T) {
	c := New[int](16)
	_, f, _ := c.Claim(context.Background(), "k")
	f.Publish(1)
	f.Abandon()
	f.Publish(2)
	if v, g, _ := c.Claim(context.Background(), "k"); g != nil || v != 1 {
		t.Fatalf("got %d (flight=%v), want the first publish", v, g != nil)
	}
}

// TestStatsMatchTraffic: the counters account for every caller exactly.
func TestStatsMatchTraffic(t *testing.T) {
	c := New[int](2)
	ctx := context.Background()
	one := func(context.Context) (int, error) { return 1, nil }
	for _, k := range []string{"a", "a", "b", "a", "c", "b"} {
		if _, _, err := c.Do(ctx, k, one); err != nil {
			t.Fatal(err)
		}
	}
	// a miss, a hit, b miss, a hit, c miss (evicts b), b miss (evicts a).
	want := Stats{Hits: 2, Misses: 4, Evictions: 2, Entries: 2}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}
