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
	"math/bits"
	"math/rand"
	"time"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// LPN is a logical page number (host address divided by the page size).
type LPN int64

// ppn is a packed physical page number: the page index in the low bits, the
// block index above it and the plane on top, each field as wide as the
// geometry needs (see ppnFields). It is an alias so the L2P copies straight
// into State.DenseL2P.
type ppn = uint32

// noPPN marks an unmapped L2P entry. New rejects any geometry whose last
// page would pack to it or beyond.
const noPPN = ^ppn(0)

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
	Code *coding.Scheme
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
	if _, _, err := ppnFields(o.Geometry); err != nil {
		return o, err
	}
	return o, nil
}

// ppnFields returns the widths of a packed PPN's page and block fields. It
// fails when the device's last page would not pack below noPPN. The page
// count is at most that last packed value plus one, so every LPN of a
// device that passes fits in 32 bits too.
func ppnFields(g flash.Geometry) (pageBits, blockBits uint, err error) {
	pageBits = uint(bits.Len(uint(g.PagesPerBlock() - 1)))
	blockBits = uint(bits.Len(uint(g.BlocksPerPlane - 1)))
	planeBits := uint(bits.Len(uint(g.Planes() - 1)))
	width := planeBits + blockBits + pageBits
	if width <= 32 {
		last := uint64(g.Planes()-1)<<(blockBits+pageBits) | uint64(g.BlocksPerPlane-1)<<pageBits | uint64(g.PagesPerBlock()-1)
		if last < uint64(noPPN) {
			return pageBits, blockBits, nil
		}
	}
	return 0, 0, fmt.Errorf("ftl: geometry %v needs %d-bit physical page numbers; at most 32 fit, with the all-ones value reserved", g, width)
}

// gcWatermark is the per-plane free-block count below which garbage
// collection runs.
const gcWatermark = 2

// plane is the per-plane allocation state.
type plane struct {
	free   []int // free block indexes (LIFO)
	active int   // block currently accepting programs; -1 if none
}

// pageCoord is a page's wordline and page type within its block.
type pageCoord struct {
	wl uint32
	t  uint8
}

// typeBits is the width of the page-type field of a sensing-table index:
// a cell stores at most 8 bits (flash.Geometry.Validate).
const typeBits = 3

// droppedPage marks a sensing-table entry for a page type its wordline's
// IDA adjustment merged away: no read of it is valid.
const droppedPage = -1

// FTL is the flash translation layer state machine. It is not safe for
// concurrent use; the simulation is single-threaded by design.
type FTL struct {
	opts Options
	geom flash.Geometry
	// order[i] is the in-block page index programmed at step i of the
	// shadow program order; built once, since the geometry is fixed.
	order []int
	// coords[page] is the wordline and page type of an in-block page
	// index (the inverse of pageIndex), so no hot path divides by the bits
	// per cell.
	coords []pageCoord
	// pageBits and planeShift place the fields of a packed PPN; pageMask
	// and blockMask extract the page and block fields.
	pageBits, planeShift uint8
	pageMask, blockMask  ppn
	// senses[keep<<typeBits|t] is the sensing count of page type t on a
	// wordline whose kept-page mask is keep (0: conventionally coded), or
	// droppedPage. Reset fills it from opts.Code.
	senses []int8
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
	// blocks is the block status table, indexed by global block id
	// (plane*BlocksPerPlane + block). A never-programmed block is the zero
	// value; an erased or retired one has NextStep 0.
	blocks []BlockState
	// wlValid and wlKeep hold one mask per wordline of the device, at
	// global block id*WordlinesPerBlock + wordline. Bit t of wlValid is
	// set while page type t holds valid data; wlKeep is the kept-page mask
	// of an IDA-adjusted wordline, 0 for a conventionally coded one.
	wlValid, wlKeep []uint8
	// rmap is the reverse map: the LPN programmed at each page of the
	// device, at global block id*PagesPerBlock + page.
	rmap []uint32
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
	// return (valid until the next call); kept is refreshIDA's scratch:
	// the in-block page indexes it keeps through a voltage adjustment.
	gcJobs      []GCJob
	refreshJobs []RefreshJob
	kept        []int
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

	stats Stats
}

// New builds an FTL over an erased device. It validates opts first, so a
// geometry too large for 32-bit PPNs allocates nothing. It then allocates
// only what the geometry fixes — the L2P, the block, wordline and page
// tables, the program order and the CWDP stripe — and leaves every other
// field to Reset, the one initializer.
func New(opts Options) (*FTL, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	g := opts.Geometry
	pageBits, blockBits, _ := ppnFields(g)
	f := &FTL{
		geom: g, order: pageOrder(g), coords: make([]pageCoord, g.PagesPerBlock()), cwdp: cwdpStripe(g),
		pageBits: uint8(pageBits), planeShift: uint8(pageBits + blockBits),
		pageMask: 1<<pageBits - 1, blockMask: 1<<blockBits - 1,
		senses: make([]int8, 1<<g.BitsPerCell<<typeBits),
		l2p:    newL2P(g.TotalPages()), planes: make([]*plane, g.Planes()),
		blocks:  make([]BlockState, g.TotalBlocks()),
		wlValid: make([]uint8, g.TotalBlocks()*g.WordlinesPerBlock),
		wlKeep:  make([]uint8, g.TotalBlocks()*g.WordlinesPerBlock),
		rmap:    make([]uint32, g.TotalPages()),
	}
	for page := range f.coords {
		f.coords[page] = pageCoord{wl: uint32(page / g.BitsPerCell), t: uint8(page % g.BitsPerCell)}
	}
	for i := range f.planes {
		f.planes[i] = &plane{free: make([]int, 0, g.BlocksPerPlane)}
	}
	if err := f.Reset(opts); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns the FTL to the erased-device state for opts, reusing the
// existing storage: the L2P and the block, wordline and page tables are
// cleared in place, and the free lists and job buffers keep their backing
// arrays. The geometry must match the one the FTL was built with — every
// table is sized for it — so a pooled FTL is keyed by geometry; any other
// option may change freely. A reset FTL is indistinguishable from a freshly
// built one, including its rng stream position.
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
	for _, p := range f.planes {
		// Push free blocks in reverse so allocation starts at block 0.
		p.free = p.free[:0]
		for b := f.geom.BlocksPerPlane - 1; b >= 0; b-- {
			p.free = append(p.free, b)
		}
		p.active = -1
	}
	clear(f.blocks)
	clear(f.wlValid)
	clear(f.wlKeep)
	clear(f.rmap)
	f.l2p.reset()
	f.dropPendingGC()
	// The rng is reseeded in place: Seed reinitializes the source fully,
	// so the stream is the one a new source with this seed would give.
	rng, src := f.rng, f.rngSrc
	if rng == nil {
		src = sim.NewCountedSource(opts.Seed ^ rngSeedMask)
		rng = rand.New(src)
	} else {
		rng.Seed(opts.Seed ^ rngSeedMask)
	}
	cost := opts.Code.ProgramCost()
	perCell := float64(opts.Code.Bits())
	// The keep-list: the pooled storage above the blank line survives, the
	// per-run state below it is rebuilt, and every field left off starts
	// from its zero value, exactly as in a new FTL.
	*f = FTL{
		geom: f.geom, order: f.order, coords: f.coords, cwdp: f.cwdp,
		pageBits: f.pageBits, planeShift: f.planeShift, pageMask: f.pageMask, blockMask: f.blockMask,
		senses: f.senses, l2p: f.l2p, planes: f.planes, blocks: f.blocks,
		wlValid: f.wlValid, wlKeep: f.wlKeep, rmap: f.rmap,
		pendingGC: f.pendingGC, gcJobs: f.gcJobs, refreshJobs: f.refreshJobs, kept: f.kept,
		freeReads: f.freeReads, freeMoves: f.freeMoves, rng: rng, rngSrc: src,

		opts: opts, gcFreeBlocks: gcWatermark,
		pagePower: cost.MeanLevel / perCell, pageCells: cost.ProgrammedFrac / perCell,
	}
	fillSenses(f.senses, opts.Code)
	return nil
}

// fillSenses builds the sensing table for code: for every kept-page mask
// and page type, what code.Senses (mask 0) or code.Merge(keep).Senses (a
// kept page) return, and droppedPage for a page the mask merged away.
func fillSenses(tab []int8, code *coding.Scheme) {
	n := code.Bits()
	for keep := coding.ValidMask(0); keep <= coding.MaskAll(n); keep++ {
		for t := coding.PageType(0); int(t) < n; t++ {
			s := droppedPage
			switch {
			case keep == 0:
				s = code.Senses(t)
			case keep.Has(t):
				s = code.Merge(keep).Senses(t)
			}
			tab[int(keep)<<typeBits|int(t)] = int8(s)
		}
	}
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
	return ppn(pl)<<f.planeShift | ppn(blk)<<f.pageBits | ppn(page)
}

// unpackPPN decodes a physical page address.
func (f *FTL) unpackPPN(p ppn) (flash.PlaneID, int, int) {
	return flash.PlaneID(p >> f.planeShift), int(p >> f.pageBits & f.blockMask), int(p & f.pageMask)
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

// blockID returns the global block id of block blk in plane pl.
func (f *FTL) blockID(pl flash.PlaneID, blk int) int {
	return int(pl)*f.geom.BlocksPerPlane + blk
}

// block returns the block-status-table entry of block blk in plane pl.
func (f *FTL) block(pl flash.PlaneID, blk int) *BlockState {
	return &f.blocks[f.blockID(pl, blk)]
}

// planeBlocks returns the block-status-table entries of plane pl, indexed
// by block.
func (f *FTL) planeBlocks(pl flash.PlaneID) []BlockState {
	n := f.geom.BlocksPerPlane
	return f.blocks[int(pl)*n : int(pl)*n+n]
}

// wordline returns the device-wide wordline index and the page type of
// page of global block gb.
func (f *FTL) wordline(gb, page int) (int, coding.PageType) {
	c := f.coords[page]
	return gb*f.geom.WordlinesPerBlock + int(c.wl), coding.PageType(c.t)
}

// blockTables returns the wordline masks and reverse-map entries of global
// block gb.
func (f *FTL) blockTables(gb int) (valid, keep []uint8, rmap []uint32) {
	wls, pages := f.geom.WordlinesPerBlock, len(f.coords)
	return f.wlValid[gb*wls : (gb+1)*wls], f.wlKeep[gb*wls : (gb+1)*wls], f.rmap[gb*pages : (gb+1)*pages]
}

// pageValid reports whether page of global block gb holds valid data.
func (f *FTL) pageValid(gb, page int) bool {
	w, t := f.wordline(gb, page)
	return f.wlValid[w]&(1<<t) != 0
}

// MappedPages returns the number of mapped logical pages.
func (f *FTL) MappedPages() int { return f.l2p.len() }
