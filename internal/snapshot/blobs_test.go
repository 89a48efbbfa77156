package snapshot

import (
	"math/rand"
	"reflect"
	"testing"
)

// memBlobs is an in-memory Blobs tier recording traffic, standing in for
// the shared results.Disk root the facade wires in production.
type memBlobs struct {
	m       map[string][]byte
	deleted []string
}

func newMemBlobs() *memBlobs { return &memBlobs{m: map[string][]byte{}} }

func (b *memBlobs) Get(key string) []byte    { return b.m[key] }
func (b *memBlobs) Put(key string, p []byte) { b.m[key] = p }
func (b *memBlobs) Delete(key string) {
	delete(b.m, key)
	b.deleted = append(b.deleted, key)
}

// TestStoreBlobTierRoundTrip: a published state lands in the blob tier and
// a second store over the same blobs restores it.
func TestStoreBlobTierRoundTrip(t *testing.T) {
	blobs := newMemBlobs()
	want := randState(rand.New(rand.NewSource(7)))

	s1 := NewStore(0)
	s1.SetBlobs(blobs)
	mustMiss(t, s1, "k")(want)
	if len(blobs.m) != 1 {
		t.Fatalf("blob tier holds %d blobs, want 1", len(blobs.m))
	}

	s2 := NewStore(0)
	s2.SetBlobs(blobs)
	got := mustHit(t, s2, "k")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("state decoded from the blob tier differs from the published one")
	}
}

// TestStoreBlobTierCorruptFailsSoft: a corrupt blob is a miss, logged, and
// deleted so the next process does not re-decode it.
func TestStoreBlobTierCorruptFailsSoft(t *testing.T) {
	blobs := newMemBlobs()
	blobs.Put("k", []byte("IDASNAP\x00garbage"))
	s := NewStore(0)
	s.SetBlobs(blobs)
	logged := 0
	s.Logf = func(string, ...any) { logged++ }
	mustMiss(t, s, "k")(nil)
	if logged == 0 {
		t.Error("corrupt blob was not logged")
	}
	if len(blobs.deleted) != 1 || blobs.deleted[0] != "k" {
		t.Errorf("corrupt blob not deleted: %v", blobs.deleted)
	}
}
