// Fault-injection tests for the disk tier, driven through the errfs
// middleware. External test package: errfs imports results, so an
// in-package test would cycle.
package results_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idaflash/internal/results"
	"idaflash/internal/results/errfs"
)

// faultDisk opens a Disk over an errfs-wrapped real filesystem with its
// clocks pinned for determinism: no real sleeping, and a controllable clock
// behind the reprobe.
func faultDisk(t *testing.T, fs *errfs.FS) (*results.Disk, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	d, err := results.OpenDiskOptions(t.TempDir(), results.DiskOptions{
		FS:    fs,
		Sleep: func(time.Duration) {},
		Now:   func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, &now
}

// TestDiskEIODegradesAndReprobes: persistent read EIO flips the disk into
// memory-only mode at the threshold; after the reprobe interval one
// operation probes again and a healthy answer lifts the degradation.
func TestDiskEIODegradesAndReprobes(t *testing.T) {
	fs := errfs.New(nil)
	d, now := faultDisk(t, fs)
	blobs := d.Sub(".json")

	fs.FailNext(errfs.OpRead, 100, errfs.EIO)
	for i := 0; i < results.FailThreshold; i++ {
		if h := d.Health(); h.Degraded {
			t.Fatalf("degraded after %d failures: %+v", i, h)
		}
		if b := blobs.Get("k"); b != nil {
			t.Fatalf("get %d returned %q under EIO", i, b)
		}
	}
	h := d.Health()
	if !h.Degraded || h.Errors != results.FailThreshold || h.Degradations != 1 {
		t.Fatalf("health after threshold: %+v", h)
	}
	if !strings.Contains(h.LastError, "input/output error") {
		t.Errorf("last error %q", h.LastError)
	}

	// Degraded: the filesystem is not touched at all.
	ops := fs.Ops(errfs.OpRead)
	blobs.Put("k", []byte(`{"v":1}`))
	if blobs.Get("k") != nil {
		t.Error("degraded disk served a blob")
	}
	if fs.Ops(errfs.OpRead) != ops || fs.Ops(errfs.OpWrite) != 0 {
		t.Fatal("degraded disk still touched the filesystem")
	}

	// Reprobe window passes and the disk heals: the next operation goes
	// through, succeeds, and lifts the degradation. Not a moment before.
	fs.Reset()
	*now = now.Add(results.ReprobeAfter - time.Nanosecond)
	blobs.Put("k", []byte(`{"v":2}`))
	if h := d.Health(); !h.Degraded || fs.Ops(errfs.OpWrite) != 0 {
		t.Fatalf("reprobed before the window: %+v", h)
	}
	*now = now.Add(time.Nanosecond)
	blobs.Put("k", []byte(`{"v":2}`))
	if h := d.Health(); h.Degraded {
		t.Fatalf("still degraded after successful reprobe: %+v", h)
	}
	if string(blobs.Get("k")) != `{"v":2}` {
		t.Error("recovered disk did not serve the blob")
	}
}

// TestDiskRetriesTransientWrite: a single EIO on the first attempt is
// absorbed by the bounded retry loop — the blob lands, nothing degrades.
func TestDiskRetriesTransientWrite(t *testing.T) {
	fs := errfs.New(nil)
	fs.FailAt(errfs.OpWrite, 1, errfs.EIO)
	d, _ := faultDisk(t, fs)
	blobs := d.Sub(".json")
	blobs.Put("k", []byte(`{"v":1}`))
	if string(blobs.Get("k")) != `{"v":1}` {
		t.Fatal("blob lost to a transient write error")
	}
	h := d.Health()
	if h.Degraded || h.Errors != 0 || h.Retries == 0 {
		t.Fatalf("health %+v: want retries > 0, no errors, not degraded", h)
	}
}

// TestDiskENOSPCEvictsAndRetries: a full filesystem evicts the oldest blobs
// to make room before retrying the write.
func TestDiskENOSPCEvictsAndRetries(t *testing.T) {
	fs := errfs.New(nil)
	d, _ := faultDisk(t, fs)
	blobs := d.Sub(".json")
	blobs.Put("old1", []byte(`{"v":"old1"}`))
	blobs.Put("old2", []byte(`{"v":"old2"}`))

	fs.FailAt(errfs.OpWrite, 3, errfs.ENOSPC)
	blobs.Put("new", []byte(`{"v":"new"}`))
	if string(blobs.Get("new")) != `{"v":"new"}` {
		t.Fatal("blob lost to ENOSPC despite retry")
	}
	if h := d.Health(); h.Degraded || h.Retries == 0 {
		t.Fatalf("health %+v", h)
	}
	if blobs.Get("old1") != nil {
		t.Error("oldest blob not evicted to make room")
	}
}

// TestDiskMissIsNotAFault: reading absent keys is healthy traffic — it must
// clear the failure streak, not extend it.
func TestDiskMissIsNotAFault(t *testing.T) {
	fs := errfs.New(nil)
	d, _ := faultDisk(t, fs)
	blobs := d.Sub(".json")
	fs.FailAt(errfs.OpRead, 1, errfs.EIO)
	fs.FailAt(errfs.OpRead, 3, errfs.EIO)
	fs.FailAt(errfs.OpRead, 5, errfs.EIO)
	// Alternating fault / clean miss: the streak never reaches the threshold.
	for i := 0; i < 6; i++ {
		blobs.Get("absent")
	}
	if h := d.Health(); h.Degraded {
		t.Fatalf("alternating failures degraded the disk: %+v", h)
	}
}

// TestStoreTornWriteRecomputes: a torn result blob (half a file, reported
// as a successful write) is rejected on read, deleted, and the point
// recomputes — a run never sees garbage.
func TestStoreTornWriteRecomputes(t *testing.T) {
	fs := errfs.New(nil)
	dir := t.TempDir()
	d, err := results.OpenDiskOptions(dir, results.DiskOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"value":12345678}`)
	compute := func(context.Context) ([]byte, error) { return payload, nil }

	fs.FailAt(errfs.OpWrite, 1, errfs.Torn)
	s1 := results.NewStore()
	s1.SetBlobs(d.Sub(".json"))
	if _, _, err := s1.GetOrCompute(context.Background(), "k", compute); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory: the torn blob must not be
	// served. It is dropped and the compute runs again.
	d2, err := results.OpenDiskOptions(dir, results.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := results.NewStore()
	s2.SetBlobs(d2.Sub(".json"))
	computed := false
	b, cached, err := s2.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		computed = true
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !computed || cached {
		t.Fatalf("torn blob served as a hit (computed=%v cached=%v)", computed, cached)
	}
	if string(b) != string(payload) {
		t.Fatalf("payload %q", b)
	}
	// And the repaired blob now round-trips as a real hit.
	s3 := results.NewStore()
	s3.SetBlobs(d2.Sub(".json"))
	if _, cached, _ := s3.GetOrCompute(context.Background(), "k", compute); !cached {
		t.Error("repaired blob not served from disk")
	}
}

// TestStoreShortReadRecomputes: a short read that clips the blob is
// likewise rejected by the frame checks instead of being served.
func TestStoreShortReadRecomputes(t *testing.T) {
	fs := errfs.New(nil)
	d, err := results.OpenDiskOptions(t.TempDir(), results.DiskOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	blobs := d.Sub(".json")
	payload := []byte(`{"value":12345678}`)
	compute := func(context.Context) ([]byte, error) { return payload, nil }
	s0 := results.NewStore()
	s0.SetBlobs(blobs)
	if _, _, err := s0.GetOrCompute(context.Background(), "k", compute); err != nil {
		t.Fatal(err)
	}

	fs.FailNext(errfs.OpRead, 1, errfs.Short)
	s := results.NewStore()
	s.SetBlobs(blobs)
	b, cached, err := s.GetOrCompute(context.Background(), "k", compute)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("short read served as a hit")
	}
	if string(b) != string(payload) {
		t.Fatalf("payload %q", b)
	}
}

// TestStoreBitFlipInDigitRecomputes: a flipped bit that leaves the payload
// valid JSON (…12345678} → …12345679}) fails the blob's checksum, so the
// point recomputes instead of serving a wrong result.
func TestStoreBitFlipInDigitRecomputes(t *testing.T) {
	dir := t.TempDir()
	d, err := results.OpenDiskOptions(dir, results.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"value":12345678}`)
	s1 := results.NewStore()
	s1.SetBlobs(d.Sub(".json"))
	if _, _, err := s1.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		return payload, nil
	}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("blob files %v, %v", files, err)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(blob, []byte("12345678}"), []byte("12345679}"), 1)
	if bytes.Equal(flipped, blob) {
		t.Fatal("payload digits not found in the blob")
	}
	if err := os.WriteFile(files[0], flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := results.NewStore()
	s2.SetBlobs(d.Sub(".json"))
	computed := false
	b, cached, err := s2.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		computed = true
		return payload, nil
	})
	if err != nil || cached || !computed {
		t.Fatalf("flipped blob served: %q cached=%v computed=%v err=%v", b, cached, computed, err)
	}
	if !bytes.Equal(b, payload) {
		t.Fatalf("payload %q", b)
	}
}

// TestStoreBareJSONBlobIsAMiss: a result blob written before blobs were
// framed — bare JSON under the result extension — is read as a miss and
// deleted, even when the recompute then fails.
func TestStoreBareJSONBlobIsAMiss(t *testing.T) {
	d, err := results.OpenDiskOptions(t.TempDir(), results.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blobs := d.Sub(".json")
	blobs.Put("k", []byte(`{"value":12345678}`))
	s := results.NewStore()
	s.SetBlobs(blobs)
	boom := errors.New("compute failed")
	b, cached, err := s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) || cached {
		t.Fatalf("bare JSON blob served as a hit: %q cached=%v err=%v", b, cached, err)
	}
	if blobs.Get("k") != nil {
		t.Error("bare JSON blob not deleted")
	}
}

// TestStoreDegradedServesUncached: with the disk memory-only, GetOrCompute
// still answers — uncached across store instances — and Stats surfaces the
// degradation for /statz.
func TestStoreDegradedServesUncached(t *testing.T) {
	fs := errfs.New(nil)
	fs.FailNext(errfs.OpRead, 1000, errfs.EIO)
	fs.FailNext(errfs.OpWrite, 1000, errfs.EIO)
	d, _ := faultDisk(t, fs)
	s := results.NewStore()
	s.SetBlobs(d.Sub(".json"))
	for i := 0; i < 4; i++ {
		b, _, err := s.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte(`{"v":1}`), nil
		})
		if err != nil || string(b) != `{"v":1}` {
			t.Fatalf("run %d: %q, %v", i, b, err)
		}
		// A fresh store each round defeats the memory tier, so every round
		// exercises the sick disk.
		s = results.NewStore()
		s.SetBlobs(d.Sub(".json"))
	}
	st := s.Stats()
	if st.Disk == nil || !st.Disk.Degraded {
		t.Fatalf("stats do not surface the degradation: %+v", st)
	}
}
