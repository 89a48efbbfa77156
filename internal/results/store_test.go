package results

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreSingleflight(t *testing.T) {
	s := NewStore()
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	cachedN := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, cached, err := s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			if cached {
				cachedN.Add(1)
			}
			results[i] = b
		}()
	}
	// Let the waiters pile up behind the first claim, then release it.
	deadline := time.Now().Add(2 * time.Second)
	for computes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if cachedN.Load() != waiters-1 {
		t.Errorf("%d callers reported cached, want %d", cachedN.Load(), waiters-1)
	}
	for i, b := range results {
		if !bytes.Equal(b, []byte("payload")) {
			t.Errorf("caller %d got %q", i, b)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStoreErrorNotCached: a failed compute is abandoned; the next call
// recomputes instead of inheriting the failure.
func TestStoreErrorNotCached(t *testing.T) {
	s := NewStore()
	boom := errors.New("boom")
	_, _, err := s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	b, cached, err := s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || cached || !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("retry = %q cached=%v err=%v", b, cached, err)
	}
}

// TestStoreWaiterRetriesAfterAbandon: a waiter on a cancelled compute
// re-claims the key and computes for itself.
func TestStoreWaiterRetriesAfterAbandon(t *testing.T) {
	s := NewStore()
	started := make(chan struct{})
	fail := make(chan struct{})
	go func() {
		_, _, _ = s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(started)
			<-fail
			return nil, context.Canceled
		})
	}()
	<-started
	done := make(chan []byte, 1)
	go func() {
		b, _, err := s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte("second"), nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- b
	}()
	time.Sleep(10 * time.Millisecond) // let the second caller start waiting
	close(fail)
	if b := <-done; !bytes.Equal(b, []byte("second")) {
		t.Errorf("waiter got %q", b)
	}
}

// TestStoreWaiterHonorsContext: a waiter whose own context ends stops
// waiting without disturbing the executing compute.
func TestStoreWaiterHonorsContext(t *testing.T) {
	s := NewStore()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := s.GetOrCompute(ctx, "k", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	close(release)
	// The original compute still published.
	b, cached, err := s.GetOrCompute(context.Background(), "k", nil)
	if err != nil || !cached || !bytes.Equal(b, []byte("late")) {
		t.Fatalf("after release: %q cached=%v err=%v", b, cached, err)
	}
}

// TestStoreDiskTierServesAcrossRestart: a fresh Store over the same blob
// root serves the payload without computing — the farm's restart contract.
func TestStoreDiskTierServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDiskOptions(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewStore()
	s1.SetBlobs(d1.Sub(".json"))
	cold, cached, err := s1.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		return []byte(`{"point":1}`), nil
	})
	if err != nil || cached {
		t.Fatalf("cold: cached=%v err=%v", cached, err)
	}

	d2, err := OpenDiskOptions(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	s2.SetBlobs(d2.Sub(".json"))
	warm, cached, err := s2.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		t.Error("warm store recomputed")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("warm: cached=%v err=%v", cached, err)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm bytes differ: %q vs %q", cold, warm)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm stats = %+v", st)
	}
}

// TestStoreMemoryBound: the in-memory tier evicts its oldest published
// entries past the limit; evicted keys recompute (or re-read disk).
func TestStoreMemoryBound(t *testing.T) {
	s := NewStore()
	last := fmt.Sprintf("k%d", storeEntries+1)
	for i := 0; i < storeEntries+2; i++ {
		key := fmt.Sprintf("k%d", i)
		_, _, err := s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			return []byte(key), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != storeEntries {
		t.Errorf("entries = %d, want %d", st.Entries, storeEntries)
	}
	// k0 was evicted: a re-request recomputes.
	var recomputed bool
	_, cached, err := s.GetOrCompute(context.Background(), "k0", func(context.Context) ([]byte, error) {
		recomputed = true
		return []byte("k0"), nil
	})
	if err != nil || cached || !recomputed {
		t.Errorf("evicted key: cached=%v recomputed=%v err=%v", cached, recomputed, err)
	}
	// The last key is still resident.
	_, cached, err = s.GetOrCompute(context.Background(), last, nil)
	if err != nil || !cached {
		t.Errorf("resident key: cached=%v err=%v", cached, err)
	}
}

// TestStorePanickingComputeAbandonsClaim: a panic unwinding out of compute
// releases the key's claim (the panic is re-raised), so a later caller
// computes afresh instead of waiting forever.
func TestStorePanickingComputeAbandonsClaim(t *testing.T) {
	s := NewStore()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed")
			}
		}()
		_, _, _ = s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			panic("compute bug")
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b, cached, err := s.GetOrCompute(ctx, "k", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || cached || !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("retry after panic = %q cached=%v err=%v", b, cached, err)
	}
}
