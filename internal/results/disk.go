// Package results is the farm's durable memory: a content-addressed,
// LRU-bounded blob root on disk (Disk) shared by simulation result payloads
// (".json") and aged device-state snapshots (".snap"), and the one
// two-tier cache (Cache) that layers a singleflighted memory tier over a
// blob kind. Its two instances are the result store (Store, keyed by the
// canonical experiments memo key, so identical simulation points are served
// across restarts and clients, byte for byte) and the snapshot store. Every
// blob is a checksummed internal/frame file, so a corrupted one is a miss,
// never a served value.
package results

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultDiskBudget bounds a Disk that was opened without an explicit
// budget: 2 GiB holds thousands of result payloads and hundreds of device
// snapshots — every realistic sweep — while keeping a CI cache or a
// developer's scratch directory from growing without bound.
const DefaultDiskBudget = 2 << 30

// Retry and degradation defaults. A sick disk gets a small, bounded number
// of jittered retries per operation; once several operations in a row have
// exhausted their retries the Disk flips into memory-only degraded mode and
// stops touching the filesystem (every get is a miss, every put a no-op)
// until a reprobe interval passes.
const (
	defaultMaxRetries    = 2
	defaultRetryBase     = 2 * time.Millisecond
	defaultFailThreshold = 4
	defaultReprobeAfter  = 30 * time.Second
)

// FS abstracts the filesystem operations a Disk performs, so tests (see the
// errfs subpackage) can inject deterministic EIO/ENOSPC/torn-write/short-read
// faults under the exact code paths production runs.
type FS interface {
	// ReadFile reads the file at path.
	ReadFile(path string) ([]byte, error)
	// WriteFile atomically writes data under dir/name (temp file + rename).
	// With sync, the file is fsynced before the rename and the directory
	// after it, so a committed blob survives power loss.
	WriteFile(dir, name string, data []byte, sync bool) error
	// Remove deletes the file at path.
	Remove(path string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]os.DirEntry, error)
}

// OSFS is the production FS: the os package, with the atomic-write and
// fsync discipline WriteFile documents.
type OSFS struct{}

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFile implements FS: temp file, optional fsync, rename, optional
// parent-directory fsync. Without sync the write is atomic against readers
// (rename) but not against power loss — the classic temp+rename hole this
// parameter exists to close.
func (OSFS) WriteFile(dir, name string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(dir, ".blob-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if sync {
		return SyncDir(dir)
	}
	return nil
}

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// SyncDir fsyncs a directory, making a just-renamed entry durable. Shared
// with the farm's job journal, which uses the same commit discipline.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// blobName matches the content-addressed files a Disk owns: a SHA-256 hex
// digest plus a kind extension. Anything else in the directory (temp files,
// stray notes) is left alone and never counted against the budget.
var blobName = regexp.MustCompile(`^[0-9a-f]{64}\.[a-z]+$`)

// DiskOptions tune OpenDiskOptions beyond the directory itself. The zero
// value means defaults everywhere.
type DiskOptions struct {
	// Budget bounds the directory in bytes (<= 0 uses DefaultDiskBudget).
	Budget int64
	// Sync makes every blob write fsync the file and its directory, so a
	// committed blob survives power loss. Off by default: blobs are an
	// optimization, and a lost one is a cache miss — turn it on (idaserver
	// -store-sync) when the store's warmth is worth a sync per write.
	Sync bool
	// FS overrides the filesystem implementation (fault-injection tests);
	// nil uses the real one.
	FS FS
	// MaxRetries bounds per-operation retries on I/O failure (< 0 disables
	// retries; 0 uses the default of 2).
	MaxRetries int
	// RetryBase is the first retry's backoff; later retries double it, and
	// each adds up to one base interval of seeded jitter (0 = default 2ms).
	RetryBase time.Duration
	// FailThreshold is how many consecutive operations must exhaust their
	// retries before the Disk degrades to memory-only mode (0 = default 4).
	FailThreshold int
	// ReprobeAfter is how long a degraded Disk waits before letting one
	// operation probe the filesystem again (0 = default 30s).
	ReprobeAfter time.Duration
	// Sleep replaces the retry backoff sleep (tests); nil sleeps for real.
	Sleep func(time.Duration)
	// Now replaces the clock behind the degraded-mode reprobe (tests).
	Now func() time.Time
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.Budget <= 0 {
		o.Budget = DefaultDiskBudget
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = defaultMaxRetries
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = defaultRetryBase
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = defaultFailThreshold
	}
	if o.ReprobeAfter <= 0 {
		o.ReprobeAfter = defaultReprobeAfter
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Disk is a content-addressed blob directory with a shared byte budget:
// files are named by the SHA-256 of their key plus a kind extension, writes
// are atomic (temp file + rename, optionally fsynced), reads and writes
// refresh recency, and when the directory grows past the budget the
// least-recently-used blobs — of any kind — are evicted. One Disk therefore
// serves result payloads and snapshot blobs out of a single eviction pool,
// so a snapshot-heavy sweep and a result-heavy one compete for the same
// bytes instead of each hoarding a private cap.
//
// All failure modes degrade to cache misses, with graceful degradation on a
// sick disk: transient errors get bounded jittered-backoff retries, ENOSPC
// evicts old blobs before retrying, and persistent failure flips the Disk
// into memory-only degraded mode (gets miss, puts no-op) that reprobes the
// filesystem periodically. Nothing ever surfaces as an error to the
// simulation; Health exposes the state for /statz and /readyz.
type Disk struct {
	mu     sync.Mutex
	dir    string
	budget int64
	files  map[string]*list.Element // blob name -> lru element
	lru    *list.List               // front = most recent; value: *blobInfo
	bytes  int64

	fs   FS
	sync bool
	opts DiskOptions

	// Health state: consecutive-failure tracking and the degraded switch.
	hmu        sync.Mutex
	rng        *rand.Rand // backoff jitter; seeded for deterministic tests
	consec     int
	degraded   bool
	degradedAt time.Time
	lastErr    string
	errorsN    atomic.Uint64
	retriesN   atomic.Uint64
	degradedN  atomic.Uint64

	// Logf, when set, receives fail-soft diagnostics (eviction notices,
	// write failures, degradation flips). The default discards them.
	Logf func(format string, args ...any)
}

type blobInfo struct {
	name string
	size int64
}

// OpenDiskOptions opens (creating if needed) a content-addressed blob root
// with the given options: byte budget, sync policy, retry/degradation
// knobs and fault-injectable FS.
func OpenDiskOptions(dir string, opts DiskOptions) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("results: empty disk directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	opts = opts.withDefaults()
	d := &Disk{
		dir:    dir,
		budget: opts.Budget,
		files:  make(map[string]*list.Element),
		lru:    list.New(),
		fs:     opts.FS,
		sync:   opts.Sync,
		opts:   opts,
		rng:    rand.New(rand.NewSource(1)),
	}
	d.scan()
	return d, nil
}

// Sub returns a view of the Disk that stores blobs of one kind (an
// extension like ".json" or ".snap"). Views share the Disk's budget and
// eviction order; they only partition the namespace.
func (d *Disk) Sub(ext string) *Blobs { return &Blobs{d: d, ext: ext} }

// DiskHealth is the Disk's failure-visibility snapshot, exported through
// Store.Stats into /statz and summarized in /readyz.
type DiskHealth struct {
	// Degraded reports memory-only mode: the disk tier is being bypassed
	// after persistent I/O failure, and traffic is served uncached.
	Degraded bool `json:"degraded"`
	// Errors counts operations that failed after exhausting their retries.
	Errors uint64 `json:"errors"`
	// Retries counts individual retry attempts.
	Retries uint64 `json:"retries"`
	// Degradations counts flips into degraded mode.
	Degradations uint64 `json:"degradations"`
	// LastError is the most recent failure, for logs and dashboards.
	LastError string `json:"last_error,omitempty"`
}

// Health snapshots the failure counters and the degraded switch.
func (d *Disk) Health() DiskHealth {
	d.hmu.Lock()
	h := DiskHealth{Degraded: d.degraded, LastError: d.lastErr}
	d.hmu.Unlock()
	h.Errors = d.errorsN.Load()
	h.Retries = d.retriesN.Load()
	h.Degradations = d.degradedN.Load()
	return h
}

// scan inventories pre-existing blobs, oldest first, so eviction order
// survives the process boundary.
func (d *Disk) scan() {
	entries, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	var found []os.FileInfo
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !e.IsDir() && blobName.MatchString(e.Name()) {
			found = append(found, fi)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].ModTime().Before(found[j].ModTime()) })
	for _, fi := range found {
		d.touch(fi.Name(), fi.Size())
	}
}

// nameFor content-addresses a key.
func nameFor(key, ext string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ext
}

func (d *Disk) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// ioAllowed gates every filesystem touch. In degraded mode it refuses
// until the reprobe interval has passed, then lets exactly one operation
// through per interval — the probe whose success flips the Disk back.
func (d *Disk) ioAllowed() bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if !d.degraded {
		return true
	}
	if d.opts.Now().Sub(d.degradedAt) >= d.opts.ReprobeAfter {
		// Push the window forward so a failing probe does not open the
		// floodgates for every caller behind it.
		d.degradedAt = d.opts.Now()
		return true
	}
	return false
}

// ioFailed records one operation that exhausted its retries, flipping into
// degraded mode at the consecutive-failure threshold.
func (d *Disk) ioFailed(err error) {
	d.errorsN.Add(1)
	d.hmu.Lock()
	d.consec++
	d.lastErr = err.Error()
	flip := !d.degraded && d.consec >= d.opts.FailThreshold
	if flip {
		d.degraded = true
		d.degradedAt = d.opts.Now()
		d.degradedN.Add(1)
	}
	stillDegraded := d.degraded
	d.hmu.Unlock()
	if flip {
		d.logf("results: disk degraded to memory-only mode after %d consecutive I/O failures (last: %v)", d.opts.FailThreshold, err)
	} else if stillDegraded {
		d.logf("results: disk reprobe failed, staying memory-only: %v", err)
	}
}

// ioOK records a successful filesystem touch, clearing the failure streak
// and leaving degraded mode if a reprobe just succeeded.
func (d *Disk) ioOK() {
	d.hmu.Lock()
	d.consec = 0
	recovered := d.degraded
	d.degraded = false
	d.hmu.Unlock()
	if recovered {
		d.logf("results: disk recovered, leaving memory-only mode")
	}
}

// backoff computes the attempt-th retry delay: base doubling per attempt
// plus up to one base interval of seeded jitter.
func (d *Disk) backoff(attempt int) time.Duration {
	base := d.opts.RetryBase << attempt
	d.hmu.Lock()
	j := time.Duration(d.rng.Int63n(int64(d.opts.RetryBase)))
	d.hmu.Unlock()
	return base + j
}

// readRetry reads path with bounded retries. A missing file returns
// immediately (a miss is not a sick disk).
func (d *Disk) readRetry(path string) ([]byte, error) {
	var b []byte
	var err error
	for attempt := 0; ; attempt++ {
		b, err = d.fs.ReadFile(path)
		if err == nil || errors.Is(err, iofs.ErrNotExist) {
			return b, err
		}
		if attempt >= d.opts.MaxRetries {
			return nil, err
		}
		d.retriesN.Add(1)
		d.opts.Sleep(d.backoff(attempt))
	}
}

// writeRetry writes a blob with bounded retries; ENOSPC evicts old blobs
// to make room before retrying, so a full disk sheds cache instead of
// failing writes forever.
func (d *Disk) writeRetry(name string, b []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = d.fs.WriteFile(d.dir, name, b, d.sync)
		if err == nil {
			return nil
		}
		if attempt >= d.opts.MaxRetries {
			return err
		}
		if errors.Is(err, syscall.ENOSPC) {
			// The filesystem, not the budget, set the bound: free the
			// payload's worth plus slack; the oldest blobs go.
			d.mu.Lock()
			d.evictLocked(d.bytes-int64(len(b))-1<<20, 0, "for ENOSPC")
			d.mu.Unlock()
		}
		d.retriesN.Add(1)
		d.opts.Sleep(d.backoff(attempt))
	}
}

// get reads a blob, refreshing its recency. A missing or unreadable file is
// a miss (nil); a file present on disk but unknown to the accounting — e.g.
// written by a previous process after this one scanned — is adopted.
func (d *Disk) get(name string) []byte {
	if !d.ioAllowed() {
		return nil
	}
	b, err := d.readRetry(filepath.Join(d.dir, name))
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			// A plain miss: the disk answered, there is just no blob.
			d.ioOK()
			d.forget(name)
			return nil
		}
		d.ioFailed(err)
		d.logf("results: reading %s: %v", name, err)
		return nil
	}
	d.ioOK()
	d.touch(name, int64(len(b)))
	return b
}

// put writes a blob atomically and evicts over-budget blobs, oldest first.
// Failures are retried, then logged and swallowed: persistence is an
// optimization.
func (d *Disk) put(name string, b []byte) {
	if !d.ioAllowed() {
		return
	}
	if err := d.writeRetry(name, b); err != nil {
		d.ioFailed(err)
		d.logf("results: writing %s: %v", name, err)
		return
	}
	d.ioOK()
	d.touch(name, int64(len(b)))
}

// touch accounts a blob of size bytes as the most recently used, adopting
// it if unknown, then evicts over-budget blobs, oldest first.
func (d *Disk) touch(name string, size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.files[name]; ok {
		info := el.Value.(*blobInfo)
		d.bytes += size - info.size
		info.size = size
		d.lru.MoveToFront(el)
	} else {
		d.files[name] = d.lru.PushFront(&blobInfo{name, size})
		d.bytes += size
	}
	d.evictLocked(d.budget, 1, "over budget")
}

// has reports whether the accounting knows a blob, without touching the
// filesystem.
func (d *Disk) has(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// delete removes a blob (a corrupt payload a reader rejected).
func (d *Disk) delete(name string) {
	if d.ioAllowed() {
		_ = d.fs.Remove(filepath.Join(d.dir, name))
	}
	d.forget(name)
}

// forget drops a blob from the accounting without touching the file.
func (d *Disk) forget(name string) {
	d.mu.Lock()
	if el, ok := d.files[name]; ok {
		d.dropLocked(el)
	}
	d.mu.Unlock()
}

func (d *Disk) dropLocked(el *list.Element) *blobInfo {
	info := d.lru.Remove(el).(*blobInfo)
	delete(d.files, info.name)
	d.bytes -= info.size
	return info
}

// evictLocked deletes least-recently-used blobs until at most limit bytes
// remain, keeping at least keep blobs. Called with d.mu held.
func (d *Disk) evictLocked(limit int64, keep int, why string) {
	for d.bytes > limit && d.lru.Len() > keep {
		info := d.dropLocked(d.lru.Back())
		_ = d.fs.Remove(filepath.Join(d.dir, info.name))
		d.logf("results: evicted %s (%d bytes) %s", info.name, info.size, why)
	}
}

// Blobs is one kind's view of a Disk (see Disk.Sub): a Cache's blob tier.
type Blobs struct {
	d   *Disk
	ext string
}

// Get returns the blob stored under key, or nil on any miss.
func (v *Blobs) Get(key string) []byte { return v.d.get(nameFor(key, v.ext)) }

// Has reports whether the tier's accounting knows key's blob. It does no
// I/O, so a blob another process wrote since this one scanned reads false.
func (v *Blobs) Has(key string) bool { return v.d.has(nameFor(key, v.ext)) }

// Put stores a blob under key, atomically, evicting over budget.
func (v *Blobs) Put(key string, b []byte) { v.d.put(nameFor(key, v.ext), b) }

// Delete removes key's blob (callers drop payloads they failed to decode).
func (v *Blobs) Delete(key string) { v.d.delete(nameFor(key, v.ext)) }
