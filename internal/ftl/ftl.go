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

// Options configures an FTL instance.
type Options struct {
	// Geometry is the physical device shape. Required.
	Geometry flash.Geometry
	// Code is the cell coding; defaults to the registry's default code
	// (the paper's Gray/IDA coding) matching Geometry.BitsPerCell.
	Code coding.Code
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
	// refreshed. Zero disables refresh; a positive period also makes
	// StaggerBlockAges spread the aged blocks over one period, and
	// force-closes an active block once it has been open half a period
	// (see closeAgedActive).
	RefreshPeriod time.Duration
	// Seed drives the FTL's randomness (corruption draws, stagger).
	Seed int64
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
	// Stats.ReadsBySenses has one bucket per sensing count, so every read
	// lands in a bucket and Σ n·ReadsBySenses[n] is the senses total. A
	// merged wordline never needs more sensings than the code's slowest page.
	if n := len(Stats{}.ReadsBySenses); o.Code.MaxSenses() >= n {
		return o, fmt.Errorf("ftl: code %q needs up to %d sensings per read; Stats counts at most %d", o.Code.Name(), o.Code.MaxSenses(), n-1)
	}
	if o.ErrorRate < 0 || o.ErrorRate > 1 {
		return o, fmt.Errorf("ftl: ErrorRate %v out of [0,1]", o.ErrorRate)
	}
	if o.RefreshPeriod < 0 {
		return o, fmt.Errorf("ftl: RefreshPeriod %v must be non-negative", o.RefreshPeriod)
	}
	if gcWatermark >= o.Geometry.BlocksPerPlane {
		return o, fmt.Errorf("ftl: BlocksPerPlane %d must exceed the GC watermark %d", o.Geometry.BlocksPerPlane, gcWatermark)
	}
	return o, nil
}

// gcWatermark is the per-plane free-block count below which garbage
// collection runs.
const gcWatermark = 2

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
	opts Options
	geom flash.Geometry
	// order[i] is the in-block page index programmed at step i of the
	// shadow program order; built once, since the geometry is fixed.
	order []int
	// gcFreeBlocks is the GC watermark; always gcWatermark, except where
	// a test sets another.
	gcFreeBlocks int
	rng          *rand.Rand
	// rngSrc is rng's underlying source; its draw count pins the rng's
	// position in the seeded stream so Snapshot/Restore can serialize it.
	rngSrc *sim.CountedSource
	// pagePower and pageCells are the code's per-wordline program cost
	// split per page: one page program accounts for 1/bits of the
	// wordline's expected charge and programmed-cell population.
	pagePower, pageCells float64

	l2p    *l2pTable
	planes []*plane
	// allocCursor rotates host writes across planes in CWDP order
	// (channel first, then chip, then die, then plane).
	allocCursor int
	// cwdp[i] is the PlaneID the i-th allocation in a stripe targets;
	// built once, since the geometry is fixed.
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

// New builds an FTL over an erased device. It allocates only what the
// geometry fixes — the L2P, the plane tables, the program order and the CWDP
// stripe — and leaves every other field to Reset, the one initializer.
func New(opts Options) (*FTL, error) {
	g := opts.Geometry
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f := &FTL{geom: g, l2p: newL2P(g.TotalPages()), planes: make([]*plane, g.Planes()), order: pageOrder(g), cwdp: cwdpStripe(g)}
	for i := range f.planes {
		f.planes[i] = &plane{blocks: make([]*block, g.BlocksPerPlane), free: make([]int, 0, g.BlocksPerPlane)}
	}
	if err := f.Reset(opts); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns the FTL to the erased-device state for opts, reusing the
// existing storage: the dense L2P is refilled in place, block-status-table
// entries are harvested into a pool that blockAt (and Restore) draws from,
// and the free lists and job buffers keep their backing arrays. The
// geometry must match the one the FTL was built with — every table is
// sized for it — so a pooled FTL is keyed by geometry; any other option may
// change freely. A reset FTL is indistinguishable from a freshly built one,
// including its rng stream position.
//
// Reset validates opts before it changes anything: on error the FTL is
// untouched and stays usable.
func (f *FTL) Reset(opts Options) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	if opts.Geometry != f.geom {
		return fmt.Errorf("ftl: reset geometry %+v does not match device %+v", opts.Geometry, f.geom)
	}

	// Validation passed; everything below is infallible.
	pool := f.blockPool
	for _, p := range f.planes {
		for i, b := range p.blocks {
			if b != nil {
				pool = append(pool, b)
				p.blocks[i] = nil
			}
		}
		// Push free blocks in reverse so allocation starts at block 0.
		p.free = p.free[:0]
		for b := f.geom.BlocksPerPlane - 1; b >= 0; b-- {
			p.free = append(p.free, b)
		}
		p.active = -1
	}
	f.l2p.reset()
	f.dropPendingGC()
	src := sim.NewCountedSource(opts.Seed ^ rngSeedMask)
	cost := opts.Code.ProgramCost()
	bits := float64(opts.Code.Bits())
	// The keep-list: the pooled storage above the blank line survives, the
	// per-run state below it is rebuilt, and every field left off starts
	// from its zero value, exactly as in a new FTL.
	*f = FTL{
		geom: f.geom, l2p: f.l2p, planes: f.planes, cwdp: f.cwdp, order: f.order, blockPool: pool,
		pendingGC: f.pendingGC, gcJobs: f.gcJobs, refreshJobs: f.refreshJobs, kept: f.kept,
		freeReads: f.freeReads, freeMoves: f.freeMoves,

		opts: opts, gcFreeBlocks: gcWatermark, rng: rand.New(src), rngSrc: src,
		pagePower: cost.MeanLevel / bits, pageCells: cost.ProgrammedFrac / bits,
	}
	return nil
}

// pageOrder turns the geometry's shadow program order into in-block page
// indexes, one per program step.
func pageOrder(g flash.Geometry) []int {
	refs := flash.NewProgramOrder(g.WordlinesPerBlock, g.BitsPerCell)
	order := make([]int, len(refs))
	for i, r := range refs {
		order[i] = r.WL*g.BitsPerCell + int(r.Type)
	}
	return order
}

// cwdpStripe builds the plane visit order of the paper's static CWDP
// allocation: consecutive allocations step through the channels first,
// then the chips, then the dies, then the planes.
func cwdpStripe(g flash.Geometry) []flash.PlaneID {
	stripe := make([]flash.PlaneID, 0, g.Planes())
	for p := 0; p < g.PlanesPerDie; p++ {
		for d := 0; d < g.DiesPerChip; d++ {
			for w := 0; w < g.ChipsPerChannel; w++ {
				for c := 0; c < g.Channels; c++ {
					stripe = append(stripe, g.PlaneOf(flash.PlaneCoord{Channel: c, Chip: w, Die: d, Plane: p}))
				}
			}
		}
	}
	return stripe
}

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
	return pageAddr(f.unpackPPN(p))
}

// pageAddr builds the flash address of page of block blk in plane pl.
func pageAddr(pl flash.PlaneID, blk, page int) flash.PageAddr {
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

// MappedPages returns the number of mapped logical pages.
func (f *FTL) MappedPages() int { return f.l2p.len() }
