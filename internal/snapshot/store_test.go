package snapshot

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"idaflash/internal/results"
)

// diskBlobs opens a results.Disk over dir and returns its snapshot sub-tier:
// the production wiring of idaflash.SetStoreDir.
func diskBlobs(t *testing.T, dir string) *results.Blobs {
	t.Helper()
	d, err := results.OpenDiskOptions(dir, results.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d.Sub(".snap")
}

// mustMiss asserts a miss and returns its claim as a publish callback:
// a state publishes, nil abandons.
func mustMiss(t *testing.T, s *Store, key string) func(*DeviceState) {
	t.Helper()
	st, claim, err := s.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if st != nil {
		t.Fatalf("Get(%q) hit, want miss", key)
	}
	if claim == nil {
		t.Fatalf("Get(%q) miss returned no claim", key)
	}
	return func(st *DeviceState) {
		if st == nil {
			claim.Abandon()
			return
		}
		claim.Publish(st)
	}
}

func mustHit(t *testing.T, s *Store, key string) *DeviceState {
	t.Helper()
	st, publish, err := s.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if st == nil || publish != nil {
		t.Fatalf("Get(%q) missed, want hit", key)
	}
	return st
}

func TestStoreMemoryTier(t *testing.T) {
	s := NewStore(0)
	want := randState(rand.New(rand.NewSource(1)))
	mustMiss(t, s, "k")(want)
	if got := mustHit(t, s, "k"); got != want {
		t.Fatal("memory tier returned a different pointer than published")
	}
	if s.Stats().Entries != 1 {
		t.Fatalf("Len = %d, want 1", s.Stats().Entries)
	}
	s.Drop("k")
	if s.Stats().Entries != 0 {
		t.Fatalf("Len after Drop = %d, want 0", s.Stats().Entries)
	}
	mustMiss(t, s, "k")(nil) // abandon the fresh claim
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	mustMiss(t, s, "a")(randState(rand.New(rand.NewSource(1))))
	mustMiss(t, s, "b")(randState(rand.New(rand.NewSource(2))))
	mustHit(t, s, "a") // touch: "b" is now the least recently used
	mustMiss(t, s, "c")(randState(rand.New(rand.NewSource(3))))
	if s.Stats().Entries != 2 {
		t.Fatalf("Len = %d, want limit 2", s.Stats().Entries)
	}
	// "b" is evicted; a new Get claims it afresh.
	mustMiss(t, s, "b")(nil)
	mustHit(t, s, "a")
	mustHit(t, s, "c")
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := randState(rand.New(rand.NewSource(2)))

	s1 := NewStore(0)
	s1.SetBlobs(diskBlobs(t, dir))
	mustMiss(t, s1, "k")(want)

	// A fresh store (fresh process) over the same directory hits via disk.
	s2 := NewStore(0)
	blobs := diskBlobs(t, dir)
	s2.SetBlobs(blobs)
	got := mustHit(t, s2, "k")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk round trip altered the state")
	}
	// And the state is now memory-resident: deleting the blob does not
	// un-cache it.
	blobs.Delete("k")
	mustHit(t, s2, "k")
}

func TestStoreCorruptDiskFileFailsSoft(t *testing.T) {
	blobs := diskBlobs(t, t.TempDir())
	s := NewStore(0)
	s.SetBlobs(blobs)
	var logged int
	s.Logf = func(string, ...any) { logged++ }

	blobs.Put("k", []byte("IDASNAP\x00garbage"))
	publish := mustMiss(t, s, "k") // corrupt blob is a miss, not an error
	if logged == 0 {
		t.Error("corrupt blob was not logged")
	}
	if blobs.Get("k") != nil {
		t.Error("corrupt blob was not deleted")
	}
	publish(randState(rand.New(rand.NewSource(3))))
	if blobs.Get("k") == nil {
		t.Error("published state was not persisted")
	}
}

func TestStoreDropRemovesDiskFile(t *testing.T) {
	blobs := diskBlobs(t, t.TempDir())
	s := NewStore(0)
	s.SetBlobs(blobs)
	mustMiss(t, s, "k")(randState(rand.New(rand.NewSource(4))))
	if blobs.Get("k") == nil {
		t.Fatal("state not persisted")
	}
	s.Drop("k")
	if blobs.Get("k") != nil {
		t.Error("Drop left the blob behind")
	}
	mustMiss(t, s, "k")(nil)
}

func TestStoreSingleflight(t *testing.T) {
	s := NewStore(0)
	publish := mustMiss(t, s, "k")

	// Concurrent getters of the claimed key block until the publish.
	const waiters = 8
	results := make(chan *DeviceState, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, pub, err := s.Get(context.Background(), "k")
			if err != nil || pub != nil {
				t.Errorf("waiter: err=%v claimed=%t", err, pub != nil)
				return
			}
			results <- st
		}()
	}
	want := randState(rand.New(rand.NewSource(5)))
	time.Sleep(10 * time.Millisecond) // let the waiters block
	publish(want)
	wg.Wait()
	close(results)
	for st := range results {
		if st != want {
			t.Fatal("waiter observed a different state than published")
		}
	}
}

func TestStoreAbandonedClaimWakesWaiter(t *testing.T) {
	s := NewStore(0)
	publish := mustMiss(t, s, "k")

	claimed := make(chan *Claim, 1)
	go func() {
		_, pub, err := s.Get(context.Background(), "k")
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		claimed <- pub
	}()
	time.Sleep(10 * time.Millisecond)
	publish(nil) // abandon: the waiter must wake up holding a fresh claim

	select {
	case pub := <-claimed:
		if pub == nil {
			t.Fatal("waiter got a hit from an abandoned claim")
		}
		pub.Abandon()
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after the claim was abandoned")
	}
}

func TestStoreGetHonorsContext(t *testing.T) {
	s := NewStore(0)
	publish := mustMiss(t, s, "k")
	defer publish(nil)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Get(ctx, "k")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Get returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Get never returned")
	}
}

func TestStoreDetachedDirIsMemoryOnly(t *testing.T) {
	blobs := diskBlobs(t, t.TempDir())
	s := NewStore(0)
	s.SetBlobs(blobs)
	s.SetBlobs(nil)
	mustMiss(t, s, "k")(randState(rand.New(rand.NewSource(6))))
	if blobs.Get("k") != nil {
		t.Fatal("detached store still wrote a blob")
	}
}
