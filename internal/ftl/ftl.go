// Package ftl implements the flash translation layer of the simulated SSD:
// page-level logical-to-physical mapping with CWDP static allocation,
// validity tracking (the "block status table"), greedy wear-aware garbage
// collection, remapping-based data refresh, and the paper's IDA coding
// integrated into the refresh flow (Section III-C).
//
// The FTL is a pure state machine: it decides *what* physical operations
// happen and updates mapping state immediately, returning operation
// descriptions (addresses plus sensing counts) that the discrete-event SSD
// model (internal/ssd) turns into timed resource holds.
package ftl

import (
	"fmt"
	"math/rand"
	"time"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// LPN is a logical page number (host address divided by the page size).
type LPN int64

// ppn is a packed physical page number.
type ppn uint64

const noPPN = ppn(1) << 63

// FaultModel is the FTL's view of a fault injector (internal/faults): it
// answers, per physical operation, whether the medium fails it. The FTL
// owns the recovery policy — remap-on-program-failure and erase-failure
// retirement — while the model owns the failure draws, so scenarios stay
// replayable. A nil model injects nothing.
type FaultModel interface {
	// ProgramFails reports whether programming the page fails, given the
	// block's erase count (grown bad blocks appear faster on worn blocks).
	ProgramFails(addr flash.PageAddr, eraseCount int) bool
	// EraseFails reports whether erasing the block fails, given its erase
	// count after this erase.
	EraseFails(addr flash.BlockAddr, eraseCount int) bool
}

// Hooks receives notifications of FTL-level operations as they are
// decided, before their timing is charged. The telemetry layer hangs its
// activity counters here; every field is optional and a nil *Hooks (the
// default) costs one branch per operation and no allocations. Hooks must
// not mutate FTL state.
type Hooks struct {
	// Read fires for every resolved host page read.
	Read func(info ReadInfo)
	// Write fires for every host page program.
	Write func(prog PageProgram)
	// GC fires once per completed garbage-collection job.
	GC func(job *GCJob)
	// Refresh fires once per completed refresh job.
	Refresh func(job *RefreshJob)
}

// read dispatches the Read hook, tolerating nil receivers and fields.
func (h *Hooks) read(info ReadInfo) {
	if h != nil && h.Read != nil {
		h.Read(info)
	}
}

func (h *Hooks) write(prog PageProgram) {
	if h != nil && h.Write != nil {
		h.Write(prog)
	}
}

// gc and refresh hand the hook a copy of the job: taking the address of the
// caller's job would move every job to the heap, hooks installed or not.
func (h *Hooks) gc(job *GCJob) {
	if h != nil && h.GC != nil {
		j := *job
		h.GC(&j)
	}
}

func (h *Hooks) refresh(job *RefreshJob) {
	if h != nil && h.Refresh != nil {
		j := *job
		h.Refresh(&j)
	}
}

// Options configures an FTL instance.
type Options struct {
	// Geometry is the physical device shape. Required.
	Geometry flash.Geometry
	// Code is the cell coding; defaults to the registry's default code
	// (the paper's Gray/IDA coding) matching Geometry.BitsPerCell.
	Code coding.Code
	// Order is the in-block programming schedule; defaults to the shadow
	// (staircase) order real devices use.
	Order flash.OrderKind
	// IDAEnabled turns the invalid-data-aware refresh on.
	IDAEnabled bool
	// IDAOnlyInvalid restricts the voltage adjustment to wordlines that
	// already have an invalid lower page (Table I cases 2-4), relocating
	// fully-valid wordlines like the original refresh instead of
	// converting them via case 1. This is an ablation knob: it isolates
	// how much of the benefit comes from invalid-data awareness proper
	// versus the blanket case-1 conversion.
	IDAOnlyInvalid bool
	// ErrorRate is the probability that a page kept through the voltage
	// adjustment is corrupted by program interference and must be
	// written back to the new block (the paper's E0..E80 knob).
	ErrorRate float64
	// RefreshPeriod is the age at which a fully-programmed block is
	// refreshed. Zero disables refresh.
	RefreshPeriod time.Duration
	// RefreshStagger spreads initial block ages uniformly over one
	// period so refreshes do not arrive in a storm.
	RefreshStagger bool
	// MaxOpenBlockAge force-closes a plane's active block once it has
	// been open this long, even if not full, so slowly-filling blocks
	// still become eligible for refresh (data retention is about page
	// age, not block occupancy). Zero disables forced closure.
	MaxOpenBlockAge time.Duration
	// Allocation is the static page-allocation order, a permutation of
	// the letters C (channel), W (way/chip), D (die), P (plane); the
	// first letter varies fastest across consecutive writes. The paper
	// uses "CWDP" (channel first), the default; the cited allocation
	// study (Jung & Kandemir, HotStorage'12) evaluates the others.
	Allocation string
	// GCFreeBlocks is the per-plane free-block low watermark that
	// triggers garbage collection; defaults to 2.
	GCFreeBlocks int
	// Seed drives the FTL's randomness (corruption draws, stagger).
	Seed int64
	// Hooks observes FTL operations (telemetry); nil disables.
	Hooks *Hooks
	// Faults injects media failures (program/erase); nil disables. The
	// SSD model supplies the per-device injector from its fault scenario.
	Faults FaultModel
}

func (o Options) withDefaults() (Options, error) {
	if err := o.Geometry.Validate(); err != nil {
		return o, err
	}
	if o.Code == nil {
		o.Code = coding.Default(o.Geometry.BitsPerCell)
	}
	if o.Code.Bits() != o.Geometry.BitsPerCell {
		return o, fmt.Errorf("ftl: scheme has %d bits but geometry says %d", o.Code.Bits(), o.Geometry.BitsPerCell)
	}
	if o.ErrorRate < 0 || o.ErrorRate > 1 {
		return o, fmt.Errorf("ftl: ErrorRate %v out of [0,1]", o.ErrorRate)
	}
	if o.RefreshPeriod < 0 {
		return o, fmt.Errorf("ftl: RefreshPeriod %v must be non-negative", o.RefreshPeriod)
	}
	if o.MaxOpenBlockAge < 0 {
		return o, fmt.Errorf("ftl: MaxOpenBlockAge %v must be non-negative", o.MaxOpenBlockAge)
	}
	if o.Allocation == "" {
		o.Allocation = "CWDP"
	}
	if err := validateAllocation(o.Allocation); err != nil {
		return o, err
	}
	if o.GCFreeBlocks == 0 {
		o.GCFreeBlocks = 2
	}
	if o.GCFreeBlocks < 1 {
		return o, fmt.Errorf("ftl: GCFreeBlocks %d must be at least 1", o.GCFreeBlocks)
	}
	if o.GCFreeBlocks >= o.Geometry.BlocksPerPlane {
		return o, fmt.Errorf("ftl: GCFreeBlocks %d must be below BlocksPerPlane %d", o.GCFreeBlocks, o.Geometry.BlocksPerPlane)
	}
	return o, nil
}

// block is the per-block entry of the block status table.
type block struct {
	eraseCount   int
	openedAt     sim.Time // time the block started accepting programs
	programmedAt sim.Time // retention clock start (set when the block closes)
	nextStep     int      // next program-order step; len(order) when full
	validCount   int
	valid        []bool // per page index (wl*bits + type)
	rmap         []LPN  // reverse map per page index
	ida          bool   // reprogrammed with the IDA coding
	refreshed    bool   // already refreshed once this cycle (await reclaim)
	bad          bool   // a program failed here; retire at the next erase
	retired      bool   // permanently out of service (grown bad block)
	// wlKeep[wl] is the kept-page mask of an IDA-reprogrammed wordline,
	// or 0 for a conventionally-coded wordline.
	wlKeep []coding.ValidMask
}

// plane is the per-plane allocation state.
type plane struct {
	blocks []*block
	free   []int // free block indexes (LIFO)
	active int   // block currently accepting programs; -1 if none
}

// FTL is the flash translation layer state machine. It is not safe for
// concurrent use; the simulation is single-threaded by design.
type FTL struct {
	opts  Options
	geom  flash.Geometry
	cells *flash.CellModel
	order *flash.ProgramOrder
	rng   *rand.Rand
	// rngSrc is rng's underlying source; its draw count pins the rng's
	// position in the seeded stream so Snapshot/Restore can serialize it.
	rngSrc *sim.CountedSource

	l2p    *l2pTable
	planes []*plane
	// allocCursor rotates host writes across planes in CWDP order
	// (channel first, then chip, then die, then plane).
	allocCursor int
	// cwdp[i] is the PlaneID the i-th allocation in a stripe targets.
	cwdp []flash.PlaneID

	// pendingGC buffers garbage collections the FTL had to run inline
	// (to keep a plane writable mid-write or mid-refresh) until the SSD
	// model drains them via CollectGC and charges their timing.
	pendingGC []GCJob
	// gcJobs and refreshJobs back the slices CollectGC and DueRefreshes
	// return (valid until the next call); kept is refreshIDA's scratch.
	gcJobs      []GCJob
	refreshJobs []RefreshJob
	kept        []keptPage
	// freeReads and freeMoves hold the op lists of released jobs (see
	// ReleaseRefreshJob and ReleaseGCJob) for the next jobs to fill, so a
	// caller that releases every job it charges makes background work
	// allocation-free in steady state.
	freeReads [][]ReadOp
	freeMoves [][]MoveOp
	// refreshing marks the block currently being refreshed; inline GC
	// must not reclaim it out from under the refresh flow.
	refreshing       flash.BlockAddr
	refreshingActive bool

	// blockPool holds block-status-table entries harvested by Reset so a
	// reused FTL repopulates its lazily-allocated block table without
	// fresh allocations. Entries keep their table slices (sized for this
	// geometry); newBlock clears them on the way out.
	blockPool []*block

	stats Stats
}

// New builds an FTL over an erased device.
func New(opts Options) (*FTL, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	g := opts.Geometry
	src := sim.NewCountedSource(opts.Seed ^ rngSeedMask)
	f := &FTL{
		opts:   opts,
		geom:   g,
		cells:  flash.NewCellModel(opts.Code),
		order:  flash.NewProgramOrder(g.WordlinesPerBlock, g.BitsPerCell, opts.Order),
		rng:    rand.New(src),
		rngSrc: src,
		l2p:    newL2P(g.TotalPages()),
	}
	f.planes = make([]*plane, g.Planes())
	for i := range f.planes {
		p := &plane{active: -1, blocks: make([]*block, g.BlocksPerPlane)}
		p.free = make([]int, 0, g.BlocksPerPlane)
		// Push free blocks in reverse so allocation starts at block 0.
		for b := g.BlocksPerPlane - 1; b >= 0; b-- {
			p.free = append(p.free, b)
		}
		f.planes[i] = p
	}
	f.cwdp = allocationStripe(g, opts.Allocation)
	return f, nil
}

// Reset returns the FTL to the erased-device state New would produce for
// opts, reusing the existing storage: the dense L2P is refilled in place,
// block-status-table entries are harvested into a pool that blockAt (and
// Restore) draws from, and the free lists and pending-GC buffer keep their
// backing arrays. The geometry must match the one the FTL was built with —
// every table is sized for it — so a pooled FTL is keyed by geometry; any
// other option may change freely. A reset FTL is indistinguishable from a
// freshly built one, including its rng stream position.
func (f *FTL) Reset(opts Options) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	if opts.Geometry != f.geom {
		return fmt.Errorf("ftl: reset geometry %+v does not match device %+v", opts.Geometry, f.geom)
	}
	src := sim.NewCountedSource(opts.Seed ^ rngSeedMask)
	sameOrder := opts.Order == f.opts.Order
	f.opts = opts
	f.cells = flash.NewCellModel(opts.Code)
	if !sameOrder {
		f.order = flash.NewProgramOrder(f.geom.WordlinesPerBlock, f.geom.BitsPerCell, opts.Order)
	}
	f.rng = rand.New(src)
	f.rngSrc = src
	f.l2p.reset()
	for _, p := range f.planes {
		for i, b := range p.blocks {
			if b != nil {
				f.blockPool = append(f.blockPool, b)
				p.blocks[i] = nil
			}
		}
		p.free = p.free[:0]
		for b := f.geom.BlocksPerPlane - 1; b >= 0; b-- {
			p.free = append(p.free, b)
		}
		p.active = -1
	}
	f.allocCursor = 0
	f.cwdp = allocationStripe(f.geom, opts.Allocation)
	f.dropPendingGC()
	f.refreshing = flash.BlockAddr{}
	f.refreshingActive = false
	f.stats = Stats{}
	return nil
}

// validateAllocation checks that the order names each of C, W, D, P once.
func validateAllocation(s string) error {
	if len(s) != 4 {
		return fmt.Errorf("ftl: allocation order %q must have 4 letters", s)
	}
	seen := map[byte]bool{}
	for i := 0; i < 4; i++ {
		c := s[i]
		switch c {
		case 'C', 'W', 'D', 'P':
			if seen[c] {
				return fmt.Errorf("ftl: allocation order %q repeats %q", s, string(c))
			}
			seen[c] = true
		default:
			return fmt.Errorf("ftl: allocation order %q has invalid letter %q (want C, W, D, P)", s, string(c))
		}
	}
	return nil
}

// allocationStripe builds the plane visit order for a static allocation: the
// first letter of the order varies fastest across consecutive allocations.
func allocationStripe(g flash.Geometry, order string) []flash.PlaneID {
	limit := func(c byte) int {
		switch c {
		case 'C':
			return g.Channels
		case 'W':
			return g.ChipsPerChannel
		case 'D':
			return g.DiesPerChip
		default:
			return g.PlanesPerDie
		}
	}
	stripe := make([]flash.PlaneID, 0, g.Planes())
	idx := [4]int{} // counters for order[0..3]
	for {
		coord := flash.PlaneCoord{}
		for i := 0; i < 4; i++ {
			switch order[i] {
			case 'C':
				coord.Channel = idx[i]
			case 'W':
				coord.Chip = idx[i]
			case 'D':
				coord.Die = idx[i]
			default:
				coord.Plane = idx[i]
			}
		}
		stripe = append(stripe, g.PlaneOf(coord))
		// Odometer increment, first letter fastest.
		i := 0
		for ; i < 4; i++ {
			idx[i]++
			if idx[i] < limit(order[i]) {
				break
			}
			idx[i] = 0
		}
		if i == 4 {
			return stripe
		}
	}
}

// Geometry returns the device geometry.
func (f *FTL) Geometry() flash.Geometry { return f.geom }

// CellModel returns the shared cell model (coding plus merge cache).
func (f *FTL) CellModel() *flash.CellModel { return f.cells }

// Options returns the options the FTL was built with (after defaulting).
func (f *FTL) Options() Options { return f.opts }

// packPPN encodes a physical page address.
func (f *FTL) packPPN(pl flash.PlaneID, blk, page int) ppn {
	per := f.geom.PagesPerBlock()
	return ppn((int(pl)*f.geom.BlocksPerPlane+blk)*per + page)
}

// unpackPPN decodes a physical page address.
func (f *FTL) unpackPPN(p ppn) (flash.PlaneID, int, int) {
	per := f.geom.PagesPerBlock()
	page := int(p) % per
	rest := int(p) / per
	return flash.PlaneID(rest / f.geom.BlocksPerPlane), rest % f.geom.BlocksPerPlane, page
}

// addrOf converts a packed PPN into a flash address.
func (f *FTL) addrOf(p ppn) flash.PageAddr {
	pl, blk, page := f.unpackPPN(p)
	return flash.PageAddr{BlockAddr: flash.BlockAddr{Plane: pl, Block: blk}, Page: page}
}

// pageIndex computes the in-block page index of a wordline/page-type pair.
func (f *FTL) pageIndex(wl int, t coding.PageType) int {
	return wl*f.geom.BitsPerCell + int(t)
}

// pageCoords inverts pageIndex.
func (f *FTL) pageCoords(page int) (wl int, t coding.PageType) {
	return page / f.geom.BitsPerCell, coding.PageType(page % f.geom.BitsPerCell)
}

// blockAt returns the block entry, allocating its table lazily.
func (f *FTL) blockAt(pl flash.PlaneID, blk int) *block {
	b := f.planes[pl].blocks[blk]
	if b == nil {
		b = f.newBlock()
		f.planes[pl].blocks[blk] = b
	}
	return b
}

// newBlock returns a zeroed block entry, reusing a pooled one (tables
// cleared in place) when Reset has harvested any.
func (f *FTL) newBlock() *block {
	if n := len(f.blockPool); n > 0 {
		b := f.blockPool[n-1]
		f.blockPool[n-1] = nil
		f.blockPool = f.blockPool[:n-1]
		clear(b.valid)
		clear(b.rmap)
		clear(b.wlKeep)
		*b = block{valid: b.valid, rmap: b.rmap, wlKeep: b.wlKeep}
		return b
	}
	return &block{
		valid:  make([]bool, f.geom.PagesPerBlock()),
		rmap:   make([]LPN, f.geom.PagesPerBlock()),
		wlKeep: make([]coding.ValidMask, f.geom.WordlinesPerBlock),
	}
}

// wlValidMask returns the validity mask of a wordline.
func (f *FTL) wlValidMask(b *block, wl int) coding.ValidMask {
	var m coding.ValidMask
	for j := 0; j < f.geom.BitsPerCell; j++ {
		if b.valid[f.pageIndex(wl, coding.PageType(j))] {
			m = m.With(coding.PageType(j))
		}
	}
	return m
}

// Mapped reports whether the LPN currently has a physical page.
func (f *FTL) Mapped(lpn LPN) bool {
	_, ok := f.l2p.get(lpn)
	return ok
}

// MappedPages returns the number of mapped logical pages.
func (f *FTL) MappedPages() int { return f.l2p.len() }
