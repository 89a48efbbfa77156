package ssd

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"idaflash/internal/ecc"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/workload"
)

// The timed replay runs in two stages (DESIGN.md, "Two-stage timed replay"):
//
//   - The FTL stage walks the arrivals and the refresh-scan ticks in the
//     engine's order and makes every FTL call the replay needs: each host
//     page's read (with its ECC retry draw) or write, the GC after a write
//     request, and each tick's refreshes, GC and block census. It publishes
//     what the calls return, in order, as effects in a ring.
//   - The timing stage is the engine with the die and channel charging. At
//     the events where it needs the FTL — an arrival, a scan tick — it
//     consumes the effects instead.
//
// The FTL does not depend on timing: its calls and their instants follow
// from the arrival stream and the scan ticks alone, and the stage replays
// those two streams in its own engine, so ties keep the scheduling order
// the device's engine gives them. The one timing-dependent input is whether
// a tick after the last arrival happens at all (the scan re-arms while
// requests are in flight), so the stage covers only the ticks that are
// certain; later ones run on the timing goroutine once the stage is done.
//
// The stage runs on its own goroutine when the replay is long (minPipelined),
// a CPU is spare and nothing else reads the FTL or the device rng mid-run
// (no fault injector, no telemetry). Otherwise the replay is inline: each arrival and scan tick
// makes its FTL calls where it happens and consumes their effects at once,
// the interleaving of a single goroutine. A stage goroutine that gives its
// CPU back leaves the rest of its walk to the timing goroutine, which steps
// it one event at a time as it needs the effects. Either way every output
// is the same.

// effectKind tells what an effect carries.
type effectKind uint8

const (
	effRead    effectKind = iota // a host page read: read, mapped, retries
	effWrite                     // a host page write: prog, or err
	effGC                        // a GC job to charge, in the job ring
	effRefresh                   // a refresh job to charge, in the job ring
	effEnd                       // ends a job list: err is the call's error
	effUsage                     // a tick's block census: inUse, idaBlocks
	effPanic                     // the stage panicked: the stage's pan
)

// effect is one FTL call's result as the timing stage consumes it. The jobs
// a GC or refresh effect stands for wait in the stage's job ring, so an
// effect stays small.
type effect struct {
	kind                      effectKind
	mapped                    bool
	retries, inUse, idaBlocks int32
	read                      ftl.ReadInfo
	prog                      ftl.PageProgram
	err                       error
}

// jobSlot is one slot of the job ring: a GC or refresh job, copied by value.
// Its op lists stay FTL-owned until released.
type jobSlot struct {
	gc  ftl.GCJob
	ref ftl.RefreshJob
}

const (
	// inlineRing is the ring's first size: an inline stage holds one walk
	// event's effects at a time, and grows the ring for a larger event.
	inlineRing = 64
	// asyncRing is the ring size a stage on its own goroutine runs with.
	// A producer that fills it waits until half of it is free.
	asyncRing = 256
	// popPublish is how many effects the consumer takes between two
	// publications of its position.
	popPublish = 16
	// jobsAhead bounds the jobs a producer on its own goroutine publishes
	// before the consumer takes them: a job's op lists stay out of the
	// FTL's pool until the job is charged, so a walk far ahead would grow
	// the pool past what the device needs inline. A producer at the bound
	// waits until the consumer has taken half of them. It is also the job
	// ring's first size, all a producer on its own goroutine needs.
	jobsAhead = 16
	// spinChecks is how many times a waiting side polls before it starts
	// yielding its processor between polls.
	spinChecks = 1 << 12
)

// minPipelined is the fewest requests a timed replay needs for its FTL
// stage to get a goroutine. A shorter replay gains too little to pay for
// what pipelining costs around it: at 2,500-request points (1,750
// measured) a warm hm_1 run was within the single-goroutine replay's
// spread, and under idaserver's open-loop traffic, whose simulated points
// are that short, the second core is not spare but serves requests, and
// pipelined points were slower (DESIGN.md, "Two-stage timed replay").
// Tests lower it to pipeline short replays.
var minPipelined = 4096

// busy counts the goroutines device runs keep busy in the process: one per
// RunContext or RunMoreContext past its snapshot lookup — its restore or
// aging and its timing stage — plus each FTL stage on its own goroutine. A
// stage gets its own goroutine only while the count is below GOMAXPROCS,
// and gives it back once another run lifts the count above.
var busy atomic.Int32

// pipelined counts the replays whose FTL stage ran on its own goroutine,
// and handedBack those among them whose stage gave its goroutine up before
// the walk ended, so tests can tell that a replay did.
var pipelined, handedBack atomic.Uint64

// claimSpareCPU counts one more busy goroutine if that leaves none waiting
// for a CPU, and returns the CPU count it checked against.
func claimSpareCPU() (procs int32, ok bool) {
	procs = int32(runtime.GOMAXPROCS(0))
	for {
		n := busy.Load()
		if n >= procs {
			return procs, false
		}
		if busy.CompareAndSwap(n, n+1) {
			return procs, true
		}
	}
}

// cursor walks a request slice in arrival order, rebased so the first
// request arrives at start.
type cursor struct {
	reqs  []workload.Request
	next  int
	start sim.Time
	base  time.Duration
}

// due returns the arrival instant of the request under the cursor.
func (c *cursor) due() sim.Time { return c.start + sim.Time(c.reqs[c.next].At-c.base) }

// remaining returns the number of requests not yet walked.
func (c *cursor) remaining() int { return len(c.reqs) - c.next }

// stageFeeder is the FTL stage's arrival stream, an Action of its walk.
type stageFeeder struct {
	st *ftlStage
	cursor
}

// Run makes the FTL calls of the request under the cursor and re-arms for
// the next one.
func (a *stageFeeder) Run() {
	st := a.st
	st.arrival(a.reqs[a.next], st.walk.Now())
	a.next++
	if a.next < len(a.reqs) {
		st.walk.AtAction(a.due(), a)
	}
}

// stageTick is the FTL stage's refresh-scan tick, an Action of its walk. It
// re-arms while arrivals remain, the ticks certain to happen.
type stageTick struct{ st *ftlStage }

// Run makes one tick's FTL calls.
func (t *stageTick) Run() {
	st := t.st
	st.scanTick(st.walk.Now())
	if st.feed.remaining() > 0 {
		st.walk.AfterAction(st.interval, t)
	}
}

// ftlStage is the FTL stage of one device, pooled with it. Its fields are
// grouped by writer, each group on cache lines of its own: the producer —
// whichever goroutine walks — reads only its own copies of what the FTL
// calls need, never a field the timing side writes. While async, the FTL
// and the device rng belong to the walking goroutine alone.
type ftlStage struct {
	// Set before the walk starts; read by both sides.
	s       *SSD
	ring    []effect
	mask    uint64
	jobRing []jobSlot // job i waits in slot i&jobMask
	jobMask uint64
	async   bool  // the walk runs on its own goroutine
	procs   int32 // the CPU count the goroutine was claimed against
	_       [64]byte

	// Producer side.
	walk     *sim.Engine
	feed     stageFeeder
	tick     stageTick
	f        *ftl.FTL
	rng      *rand.Rand
	draw     bool       // draw each read's ECC retries (no fault injector)
	ecc      ecc.Params // the device's retry parameters
	pageSize int
	interval time.Duration
	ptail    uint64              // next slot to fill
	phead    uint64              // the consumer's position as last seen
	failed   bool                // an FTL call failed: the walk ends with this event
	jobs     uint64              // jobs pushed
	jobAt    [jobsAhead]uint64   // the positions of the last jobsAhead jobs
	pan      *sim.InvariantError // what an effPanic forwards
	discard  effect              // what a producer told to stop fills instead of a slot
	discJob  jobSlot             // the same for a job
	_        [64]byte

	// Consumer side.
	chead, ctail uint64
	jhead        uint64 // the next job to take
	streaming    bool   // the replay's arrivals come from the walk
	_            [64]byte

	// Shared while async: the two positions, the run flags, and the job
	// lists the timing side released for the FTL to reuse.
	head           atomic.Uint64
	_              [56]byte
	tail           atomic.Uint64
	_              [56]byte
	stop, finished atomic.Bool

	relMu            sync.Mutex
	relPending       atomic.Bool
	relGC, spareGC   []ftl.GCJob
	relRef, spareRef []ftl.RefreshJob
}

// newStage builds a device's stage; its rings and its walk's engine are
// allocated on first use.
func newStage(s *SSD) *ftlStage {
	st := &ftlStage{s: s}
	st.feed.st, st.tick.st = st, st
	return st
}

// bind copies what the FTL calls need from the device, as its Reset left
// it.
func (st *ftlStage) bind() {
	s := st.s
	st.f, st.rng, st.draw = s.f, s.rng, s.inj == nil
	st.ecc = s.cfg.ECC
	st.pageSize, st.interval = s.pageSize, s.cfg.RefreshScanInterval
}

// clear drops the effects and jobs a cancelled or failed replay left
// behind, ahead of the next replay.
func (st *ftlStage) clear() {
	st.ptail, st.phead, st.chead, st.ctail = 0, 0, 0, 0
	st.failed = false
	st.jobs, st.jhead = 0, 0
}

// begin sets the walk up for a replay of reqs from start, with a scan tick
// armed one interval in when scan is set, scheduled in the order the
// device's engine schedules its own.
func (st *ftlStage) begin(reqs []workload.Request, start sim.Time, scan bool) {
	if st.walk == nil {
		st.walk = sim.NewEngine()
	}
	st.walk.Reset()
	st.feed.cursor = cursor{reqs: reqs, start: start, base: reqs[0].At}
	st.walk.AtAction(st.feed.due(), &st.feed)
	if scan {
		st.walk.AtAction(start+st.interval, &st.tick)
	}
	st.streaming = true
}

// arrival makes the FTL calls of one host request: each page's read or
// write, then, for a write, the GC it triggers. An FTL error does not stop
// the request's remaining calls; it ends the walk after this event.
func (st *ftlStage) arrival(r workload.Request, now sim.Time) {
	first, count := lpnRange(st.pageSize, r.Offset, r.Size)
	for lpn := first; lpn < first+count; lpn++ {
		if r.Read {
			info, ok := st.f.Read(lpn)
			retries := 0
			if ok && st.draw {
				// Under faults the issue path draws, once the
				// command gets through (faults.go).
				retries = eccParams(st.ecc, info).SampleRetries(st.rng)
			}
			e := st.push(effRead)
			e.read, e.mapped, e.retries = info, ok, int32(retries)
			continue
		}
		prog, err := st.f.Write(lpn, now)
		e := st.push(effWrite)
		e.prog, e.err = prog, err
		st.failed = st.failed || err != nil
	}
	if !r.Read {
		// Writes may have drained free blocks below the watermark.
		st.collect(now)
	}
}

// scanTick makes one refresh-scan tick's FTL calls: the due refreshes, the
// GC they may call for, and the block census for the usage peaks.
func (st *ftlStage) scanTick(now sim.Time) {
	jobs, err := st.f.DueRefreshes(now)
	for i := range jobs {
		st.pushJob(effRefresh).ref = jobs[i]
	}
	st.end(err)
	if err != nil {
		return
	}
	if len(jobs) > 0 {
		// Refresh moves may have drained free blocks, and emptied
		// blocks are reclaimable.
		st.collect(now)
	}
	u := st.f.Usage()
	e := st.push(effUsage)
	e.inUse, e.idaBlocks = int32(u.InUse+u.Active), int32(u.IDABlocks)
}

// collect runs the GC and publishes its jobs.
func (st *ftlStage) collect(now sim.Time) {
	jobs, err := st.f.CollectGC(now)
	for i := range jobs {
		st.pushJob(effGC).gc = jobs[i]
	}
	st.end(err)
}

// end closes a job list with the error of the call that made it.
func (st *ftlStage) end(err error) {
	st.push(effEnd).err = err
	st.failed = st.failed || err != nil
}

// push claims the next slot for an effect of the given kind.
func (st *ftlStage) push(kind effectKind) *effect {
	if st.ptail-st.phead == uint64(len(st.ring)) && !st.makeRoom() {
		return &st.discard
	}
	e := &st.ring[st.ptail&st.mask]
	st.ptail++
	e.kind = kind
	return e
}

// pushJob is push for a GC or refresh job; it returns the job's slot. A
// producer on its own goroutine first waits, at jobsAhead jobs the consumer
// has not taken, until it has taken half of them, so the job ring, never
// smaller than jobsAhead, has room. Inline, a full job ring grows.
func (st *ftlStage) pushJob(kind effectKind) *jobSlot {
	if st.async && st.jobs >= jobsAhead {
		if oldest := st.jobAt[st.jobs%jobsAhead]; st.phead <= oldest {
			if !st.waitFor(st.jobAt[(st.jobs+jobsAhead/2)%jobsAhead] + 1) {
				return &st.discJob
			}
		}
	}
	if !st.async && st.jobs-st.jhead == uint64(len(st.jobRing)) {
		st.growJobs(max(jobsAhead, 2*len(st.jobRing)))
	}
	st.jobAt[st.jobs%jobsAhead] = st.ptail
	if st.push(kind) == &st.discard {
		return &st.discJob
	}
	j := &st.jobRing[st.jobs&st.jobMask]
	st.jobs++
	return j
}

// makeRoom frees a slot for push: inline, by growing the ring past what
// the consumer has yet to take; async, by waiting for the consumer to free
// half the ring. It reports false when the stage was told to stop instead.
func (st *ftlStage) makeRoom() bool {
	if st.async {
		return st.waitFor(st.ptail - uint64(len(st.ring))/2)
	}
	st.phead = st.chead
	if st.ptail-st.phead == uint64(len(st.ring)) {
		st.grow(max(inlineRing, 2*len(st.ring)))
	}
	return true
}

// grow moves the ring's pending effects into a ring of n slots.
func (st *ftlStage) grow(n int) {
	ring, mask := make([]effect, n), uint64(n-1)
	for i := st.chead; i < st.ptail; i++ {
		ring[i&mask] = st.ring[i&st.mask]
	}
	st.ring, st.mask = ring, mask
}

// growJobs moves the job ring's pending jobs into a ring of n slots.
func (st *ftlStage) growJobs(n int) {
	ring, mask := make([]jobSlot, n), uint64(n-1)
	for i := st.jhead; i < st.jobs; i++ {
		ring[i&mask] = st.jobRing[i&st.jobMask]
	}
	st.jobRing, st.jobMask = ring, mask
}

// waitFor publishes what the producer has filled and waits until the
// consumer's position reaches want. It reports false when the stage is
// told to stop first.
func (st *ftlStage) waitFor(want uint64) bool {
	st.publish()
	for i := 0; ; i++ {
		if st.stop.Load() {
			return false
		}
		if st.phead = st.head.Load(); st.phead >= want {
			return true
		}
		idle(i)
	}
}

// idle is one round of a side's wait for the other. The waits never park
// the goroutine: a parked side is woken onto the waker's processor, where
// it runs only once the waker itself blocks, which would serialize the two
// stages. A side polls, then yields its processor between polls.
func idle(round int) {
	if round >= spinChecks {
		runtime.Gosched()
	}
}

// publish makes the filled slots visible to the consumer.
func (st *ftlStage) publish() { st.tail.Store(st.ptail) }

// spawn starts the walk on its own goroutine, claimed against procs CPUs.
func (st *ftlStage) spawn(procs int32) {
	if len(st.ring) < asyncRing {
		st.grow(asyncRing)
	}
	if len(st.jobRing) < jobsAhead {
		st.growJobs(jobsAhead)
	}
	st.procs = procs
	st.head.Store(0)
	st.tail.Store(0)
	st.stop.Store(false)
	st.finished.Store(false)
	st.async = true
	pipelined.Add(1)
	go st.run()
}

// run is the stage goroutine: it walks until the walk drains, an FTL call
// fails or the timing side stops it, or, between two walk events, until
// more goroutines are busy than there are CPUs — another run started — and
// the timing goroutine is to step the rest of the walk. A panic becomes
// the stream's last effect, re-raised on the timing goroutine where it
// would have happened.
func (st *ftlStage) run() {
	defer st.exit()
	defer func() {
		if v := recover(); v != nil {
			st.pan = sim.CapturePanic(v, nil)
			st.push(effPanic)
		}
	}()
	for !st.failed && !st.stop.Load() {
		if busy.Load() > st.procs {
			handedBack.Add(1)
			return
		}
		st.takeReleased()
		if !st.walk.Step() {
			return
		}
		st.publish()
	}
}

// exit publishes the last effects and signals the stage's end, its last
// touch of the stage.
func (st *ftlStage) exit() {
	st.publish()
	st.finished.Store(true)
}

// join stops a stage goroutine, waits for it, and gives the FTL back to the
// timing goroutine, with every op list released meanwhile. A stage that is
// not running on its own goroutine needs no join.
func (st *ftlStage) join() {
	if !st.async {
		return
	}
	st.stop.Store(true)
	for i := 0; !st.finished.Load(); i++ {
		idle(i)
	}
	st.reclaim()
}

// reclaim gives the FTL and the walk back to the timing goroutine once the
// stage goroutine has finished, with every effect it published and every
// op list released meanwhile.
func (st *ftlStage) reclaim() {
	st.async = false
	st.ctail = st.ptail
	busy.Add(-1)
	st.takeReleased()
}

// finish ends the replay's use of the stage.
func (st *ftlStage) finish() {
	st.join()
	st.streaming = false
}

// next returns the effect at the head of the stream, producing or awaiting
// it first. A panic forwarded from the stage goroutine resumes here.
func (st *ftlStage) next() *effect {
	if st.chead == st.ctail {
		st.fill()
	}
	e := &st.ring[st.chead&st.mask]
	if e.kind == effPanic {
		ie := st.pan
		ie.At, ie.Events = st.s.engine.Now(), st.s.engine.Processed()
		panic(ie)
	}
	return e
}

// expect is next for an effect that must be of the given kind.
func (st *ftlStage) expect(kind effectKind) *effect {
	e := st.next()
	if e.kind != kind {
		panic(fmt.Sprintf("ssd: effect stream out of step: kind %d where %d is due", e.kind, kind))
	}
	return e
}

// fill makes at least one effect available to next: inline, what the
// timing goroutine pushed itself or else the walk's next event; async, what
// the stage goroutine publishes.
func (st *ftlStage) fill() {
	if st.async {
		st.await()
		return
	}
	if st.ptail == st.chead && !(st.streaming && st.walk.Step()) {
		panic("ssd: effect stream ended before the timing stage")
	}
	st.ctail = st.ptail
}

// await waits until the stage goroutine publishes past the consumer. It
// first hands back every slot taken, which a producer waiting for room may
// need to make progress. Once the goroutine has finished — it gave its CPU
// back, or its walk ended — the timing goroutine steps the walk inline.
func (st *ftlStage) await() {
	st.publishHead()
	for i := 0; ; i++ {
		if st.ctail = st.tail.Load(); st.ctail != st.chead {
			return
		}
		if st.finished.Load() {
			st.reclaim()
			st.fill()
			return
		}
		idle(i)
	}
}

// pop frees the head effect's slot; async, the position is published every
// popPublish effects.
func (st *ftlStage) pop() {
	st.chead++
	if st.async && st.chead%popPublish == 0 {
		st.publishHead()
	}
}

// publishHead publishes the consumer's position.
func (st *ftlStage) publishHead() { st.head.Store(st.chead) }

// job returns the slot of the job the head effect stands for.
func (st *ftlStage) job() *jobSlot { return &st.jobRing[st.jhead&st.jobMask] }

// popJob is pop for a job effect, whose position is published at once: a
// producer at the jobsAhead bound waits for it. The job's slot drops its op
// lists, which the job's charge now holds.
func (st *ftlStage) popJob() {
	*st.job() = jobSlot{}
	st.jhead++
	st.chead++
	if st.async {
		st.publishHead()
	}
}

// jobsEnd consumes the marker that ends a job list and returns the error
// of the FTL call that made the list.
func (st *ftlStage) jobsEnd() error {
	err := st.expect(effEnd).err
	st.pop()
	return err
}

// releaseGC hands a charged GC job's op list back to the FTL: directly when
// the timing goroutine owns the FTL, else through the stage.
func (st *ftlStage) releaseGC(job *ftl.GCJob) {
	if !st.async {
		st.f.ReleaseGCJob(job)
		return
	}
	st.relMu.Lock()
	st.relGC = append(st.relGC, *job)
	st.relPending.Store(true)
	st.relMu.Unlock()
	*job = ftl.GCJob{}
}

// releaseRefresh is releaseGC for a refresh job.
func (st *ftlStage) releaseRefresh(job *ftl.RefreshJob) {
	if !st.async {
		st.f.ReleaseRefreshJob(job)
		return
	}
	st.relMu.Lock()
	st.relRef = append(st.relRef, *job)
	st.relPending.Store(true)
	st.relMu.Unlock()
	*job = ftl.RefreshJob{}
}

// takeReleased hands the jobs released through the stage to the FTL. Only
// the goroutine that owns the FTL calls it.
func (st *ftlStage) takeReleased() {
	if !st.relPending.Load() {
		return
	}
	st.relMu.Lock()
	gc, ref := st.relGC, st.relRef
	st.relGC, st.relRef = st.spareGC[:0], st.spareRef[:0]
	st.relPending.Store(false)
	st.relMu.Unlock()
	for i := range gc {
		st.f.ReleaseGCJob(&gc[i])
	}
	for i := range ref {
		st.f.ReleaseRefreshJob(&ref[i])
	}
	st.spareGC, st.spareRef = gc[:0], ref[:0]
}
