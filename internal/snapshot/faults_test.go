package snapshot

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"idaflash/internal/results"
	"idaflash/internal/results/errfs"
)

// faultBlobs builds a snapshot blob tier over an errfs-wrapped results.Disk,
// the exact production wiring (idaflash.SetStoreDir) with a lying disk
// underneath.
func faultBlobs(t *testing.T, fs *errfs.FS) *results.Blobs {
	t.Helper()
	d, err := results.OpenDiskOptions(t.TempDir(), results.DiskOptions{
		FS:    fs,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.Sub(".snap")
}

// TestSnapshotTornWriteIsAMiss: a torn .snap blob (prefix persisted, write
// reported OK) fails the codec's length/CRC checks and degrades to a miss —
// the aging preamble replays, the run never errors.
func TestSnapshotTornWriteIsAMiss(t *testing.T) {
	fs := errfs.New(nil)
	want := randState(rand.New(rand.NewSource(3)))

	fs.FailAt(errfs.OpWrite, 1, errfs.Torn)
	blobs := faultBlobs(t, fs)
	s1 := NewStore(0)
	s1.SetBlobs(blobs)
	mustMiss(t, s1, "k")(want)

	s2 := NewStore(0)
	s2.SetBlobs(blobs)
	logged := 0
	s2.Logf = func(string, ...any) { logged++ }
	publish := mustMiss(t, s2, "k") // the torn blob must not decode to a hit
	if logged == 0 {
		t.Error("torn blob was not logged")
	}
	// Publishing repairs the blob; a third store gets a real hit.
	publish(want)
	s3 := NewStore(0)
	s3.SetBlobs(blobs)
	if got := mustHit(t, s3, "k"); !reflect.DeepEqual(got, want) {
		t.Fatal("repaired snapshot differs from the published state")
	}
}

// TestSnapshotShortReadIsAMiss: a read that drops the tail of a valid blob
// is caught by the codec (CRC over the full payload) and treated as a miss.
// The store deletes what it could not decode — it cannot tell a short read
// from a corrupt file — so the cost is one replayed preamble, never a bad
// restore.
func TestSnapshotShortReadIsAMiss(t *testing.T) {
	fs := errfs.New(nil)
	want := randState(rand.New(rand.NewSource(4)))
	blobs := faultBlobs(t, fs)
	s1 := NewStore(0)
	s1.SetBlobs(blobs)
	mustMiss(t, s1, "k")(want)

	fs.FailNext(errfs.OpRead, 1, errfs.Short)
	s2 := NewStore(0)
	s2.SetBlobs(blobs)
	mustMiss(t, s2, "k")(want) // republish, as the preamble replay would

	// The republished blob round-trips again.
	s3 := NewStore(0)
	s3.SetBlobs(blobs)
	if got := mustHit(t, s3, "k"); !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot differs after republish")
	}
}

// TestSnapshotEIOIsAMiss: injected EIO on the blob tier degrades to a miss
// and never surfaces as an error from Store.Get.
func TestSnapshotEIOIsAMiss(t *testing.T) {
	fs := errfs.New(nil)
	want := randState(rand.New(rand.NewSource(5)))
	blobs := faultBlobs(t, fs)
	s1 := NewStore(0)
	s1.SetBlobs(blobs)
	mustMiss(t, s1, "k")(want)

	fs.FailNext(errfs.OpRead, 100, errfs.EIO)
	s2 := NewStore(0)
	s2.SetBlobs(blobs)
	st, claim, err := s2.Get(context.Background(), "k")
	if err != nil {
		t.Fatalf("EIO surfaced as an error: %v", err)
	}
	if st != nil {
		t.Fatal("EIO read produced a state")
	}
	claim.Abandon()
}
