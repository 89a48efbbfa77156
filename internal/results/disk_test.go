package results

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDiskOptions(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := d.Sub(".json")
	if got := res.Get("k"); got != nil {
		t.Fatalf("miss returned %q", got)
	}
	res.Put("k", []byte(`{"a":1}`))
	if got := res.Get("k"); !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatalf("Get = %q", got)
	}
	// A second kind under the same key is a distinct blob.
	snap := d.Sub(".snap")
	if got := snap.Get("k"); got != nil {
		t.Fatalf(".snap view sees .json blob: %q", got)
	}
	snap.Put("k", []byte("snapbytes"))
	if got := snap.Get("k"); !bytes.Equal(got, []byte("snapbytes")) {
		t.Fatalf("snap Get = %q", got)
	}
	if len(d.files) != 2 {
		t.Errorf("Len = %d, want 2", len(d.files))
	}
}

// TestDiskSurvivesReopen: blobs written by one Disk are served by a fresh
// one over the same directory — the restart path the farm relies on.
func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDiskOptions(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d1.Sub(".json").Put("k", []byte("payload"))

	d2, err := OpenDiskOptions(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Sub(".json").Get("k"); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("reopened Get = %q", got)
	}
	if d2.bytes != int64(len("payload")) {
		t.Errorf("reopened accounting = %d bytes", d2.bytes)
	}
}

// TestDiskSharedBudgetEvictsOldestAcrossKinds: one byte budget covers .json
// and .snap blobs together, and the least-recently-used blob goes first no
// matter its kind.
func TestDiskSharedBudgetEvictsOldestAcrossKinds(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskOptions(dir, DiskOptions{budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("x"), 30)
	d.Sub(".snap").Put("old", pay)
	d.Sub(".json").Put("mid", pay)
	// Touch "old" so "mid" is now the LRU victim.
	if d.Sub(".snap").Get("old") == nil {
		t.Fatal("old missing before eviction")
	}
	d.Sub(".json").Put("new", pay) // 90 bytes > 64: evict "mid"
	if got := d.Sub(".json").Get("mid"); got != nil {
		t.Errorf("mid survived eviction")
	}
	if d.Sub(".snap").Get("old") == nil {
		t.Errorf("recently-touched old was evicted")
	}
	if d.Sub(".json").Get("new") == nil {
		t.Errorf("just-written new was evicted")
	}
	if d.bytes > 64 && len(d.files) > 1 {
		t.Errorf("over budget after eviction: %d bytes, %d blobs", d.bytes, len(d.files))
	}
}

// TestDiskReopenEvictionOrderByModTime: a reopened Disk evicts the stalest
// pre-existing files first.
func TestDiskReopenEvictionOrderByModTime(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDiskOptions(dir, DiskOptions{budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("y"), 40)
	d1.Sub(".json").Put("a", pay)
	d1.Sub(".json").Put("b", pay)
	// Age "a" explicitly; mtime granularity alone is too coarse.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, nameFor("a", ".json")), old, old); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskOptions(dir, DiskOptions{budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Sub(".json").Get("a") != nil {
		t.Errorf("stale blob a survived reopen under budget")
	}
	if d2.Sub(".json").Get("b") == nil {
		t.Errorf("fresh blob b evicted before stale a")
	}
}

// TestDiskIgnoresForeignFiles: files that are not content-addressed blobs
// are neither counted nor evicted.
func TestDiskIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), bytes.Repeat([]byte("z"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskOptions(dir, DiskOptions{budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if d.bytes != 0 || len(d.files) != 0 {
		t.Errorf("foreign file counted: %d bytes, %d blobs", d.bytes, len(d.files))
	}
	d.Sub(".json").Put("k", bytes.Repeat([]byte("k"), 30))
	if _, err := os.Stat(filepath.Join(dir, "README.txt")); err != nil {
		t.Errorf("foreign file disturbed: %v", err)
	}
}

func TestDiskDelete(t *testing.T) {
	d, err := OpenDiskOptions(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := d.Sub(".json")
	v.Put("k", []byte("junk"))
	v.Delete("k")
	if v.Get("k") != nil {
		t.Error("blob survived Delete")
	}
	if d.bytes != 0 {
		t.Errorf("accounting after delete = %d", d.bytes)
	}
}
