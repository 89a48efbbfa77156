package ftl

import (
	"fmt"
	"math/rand"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// rngSeedMask decorrelates the FTL's random stream from the raw device seed.
// It is part of the snapshot contract: Restore rebuilds the stream from
// Options.Seed ^ rngSeedMask and skips forward to the recorded position.
const rngSeedMask = 0x49444146

// State is a deep, self-contained copy of everything mutable in an FTL: the
// L2P table, every plane's block table, free list and active block,
// buffered inline GC jobs, the refresh guard, the stats counters, and the
// rng stream position. It exists so device-state snapshots
// (internal/snapshot) can serialize an aged device and later runs can
// restore it in O(state) instead of replaying the aging preamble.
//
// A State shares no memory with the FTL that produced it, and Restore
// installs fresh copies too — one cached State can seed any number of
// devices, concurrently.
type State struct {
	// Geometry is the device shape the state was captured from; Restore
	// rejects a mismatch (a mis-keyed snapshot) rather than installing
	// tables of the wrong dimensions.
	Geometry flash.Geometry

	// DenseL2P mirrors the mapping slice, one entry per page of capacity
	// (noPPN sentinel preserved). L2PCount is the mapped-LPN count,
	// recomputed and cross-checked on restore.
	DenseL2P []uint64
	L2PCount int

	Planes      []PlaneState
	AllocCursor int

	PendingGC        []GCJob
	Refreshing       flash.BlockAddr
	RefreshingActive bool

	Stats Stats

	// RNGDraws is the FTL rng's position in its seeded stream.
	RNGDraws uint64
}

// PlaneState is one plane's allocation state.
type PlaneState struct {
	Active int
	Free   []int // free block indexes, LIFO order preserved
	Blocks []BlockState
}

// BlockState is one block-status-table entry. Present distinguishes a
// lazily-unallocated entry (nil in the live table) from an allocated one, so
// a restored device's block census matches the original exactly.
type BlockState struct {
	Present      bool
	EraseCount   int
	OpenedAt     sim.Time
	ProgrammedAt sim.Time
	NextStep     int
	ValidCount   int
	Valid        []bool
	RMap         []LPN
	IDA          bool
	Refreshed    bool
	Bad          bool
	Retired      bool
	WLKeep       []coding.ValidMask
}

// Snapshot captures the FTL's full mutable state as a deep copy.
func (f *FTL) Snapshot() *State {
	st := &State{
		Geometry:         f.geom,
		L2PCount:         f.l2p.count,
		AllocCursor:      f.allocCursor,
		Refreshing:       f.refreshing,
		RefreshingActive: f.refreshingActive,
		Stats:            f.stats,
		RNGDraws:         f.rngSrc.Draws(),
	}
	st.DenseL2P = make([]uint64, len(f.l2p.dense))
	for i, p := range f.l2p.dense {
		st.DenseL2P[i] = uint64(p)
	}
	st.Planes = make([]PlaneState, len(f.planes))
	for pl, ps := range f.planes {
		out := PlaneState{
			Active: ps.active,
			Free:   append([]int(nil), ps.free...),
			Blocks: make([]BlockState, len(ps.blocks)),
		}
		for blk, b := range ps.blocks {
			if b == nil {
				continue
			}
			out.Blocks[blk] = BlockState{
				Present:      true,
				EraseCount:   b.eraseCount,
				OpenedAt:     b.openedAt,
				ProgrammedAt: b.programmedAt,
				NextStep:     b.nextStep,
				ValidCount:   b.validCount,
				Valid:        append([]bool(nil), b.valid...),
				RMap:         append([]LPN(nil), b.rmap...),
				IDA:          b.ida,
				Refreshed:    b.refreshed,
				Bad:          b.bad,
				Retired:      b.retired,
				WLKeep:       append([]coding.ValidMask(nil), b.wlKeep...),
			}
		}
		st.Planes[pl] = out
	}
	if len(f.pendingGC) > 0 {
		st.PendingGC = make([]GCJob, len(f.pendingGC))
		for i, job := range f.pendingGC {
			job.Moves = append([]MoveOp(nil), job.Moves...)
			st.PendingGC[i] = job
		}
	}
	return st
}

// Restore replaces the FTL's mutable state with a deep copy of st, as if the
// writes that produced st had just been replayed on this instance. The FTL
// must have been built with the same geometry (and, for identical subsequent
// behavior, the same seed — the snapshot cache key pins it). Restore
// validates shapes and internal consistency and returns an error without
// touching the FTL on any mismatch, so a corrupt or mis-keyed snapshot
// degrades to an ordinary replay instead of a poisoned run.
//
// The copy lands in the FTL's existing storage: the dense L2P and block
// tables are overwritten in place (absent blocks return to the Reset pool,
// newly-present ones draw from it), so a warm run on a pooled device
// restores without a fresh deep copy. st itself is never aliased or
// mutated — one cached State can still seed any number of devices,
// concurrently.
func (f *FTL) Restore(st *State) error {
	if err := f.validateState(st); err != nil {
		return err
	}

	// Validation passed; everything below is infallible copying.
	for i, v := range st.DenseL2P {
		f.l2p.dense[i] = ppn(v)
	}
	f.l2p.count = st.L2PCount

	for pl := range st.Planes {
		ps := &st.Planes[pl]
		np := f.planes[pl]
		np.active = ps.Active
		np.free = append(np.free[:0], ps.Free...)
		for blk := range ps.Blocks {
			bs := &ps.Blocks[blk]
			if !bs.Present {
				if b := np.blocks[blk]; b != nil {
					f.blockPool = append(f.blockPool, b)
					np.blocks[blk] = nil
				}
				continue
			}
			b := np.blocks[blk]
			if b == nil {
				b = f.newBlock()
				np.blocks[blk] = b
			}
			b.eraseCount = bs.EraseCount
			b.openedAt = bs.OpenedAt
			b.programmedAt = bs.ProgrammedAt
			b.nextStep = bs.NextStep
			b.validCount = bs.ValidCount
			copy(b.valid, bs.Valid)
			copy(b.rmap, bs.RMap)
			copy(b.wlKeep, bs.WLKeep)
			b.ida = bs.IDA
			b.refreshed = bs.Refreshed
			b.bad = bs.Bad
			b.retired = bs.Retired
		}
	}

	f.dropPendingGC()
	for _, job := range st.PendingGC {
		job.Moves = append(takeList(&f.freeMoves), job.Moves...)
		f.pendingGC = append(f.pendingGC, job)
	}

	// Rebuild the rng at the recorded stream position. The seed is derived
	// from the FTL's own options, not stored in the snapshot: the snapshot
	// cache key includes the seed, so a state only ever restores onto a
	// device whose stream it belongs to.
	src := sim.NewCountedSource(f.opts.Seed ^ rngSeedMask)
	src.Skip(st.RNGDraws)

	f.allocCursor = st.AllocCursor
	f.refreshing = st.Refreshing
	f.refreshingActive = st.RefreshingActive
	f.stats = st.Stats
	f.rngSrc = src
	f.rng = rand.New(src)
	return nil
}

// validateState checks st against the FTL's shape without mutating either,
// so Restore's copy phase cannot fail partway through.
func (f *FTL) validateState(st *State) error {
	if st == nil {
		return fmt.Errorf("ftl: restore of nil state")
	}
	if st.Geometry != f.geom {
		return fmt.Errorf("ftl: snapshot geometry %+v does not match device %+v", st.Geometry, f.geom)
	}
	if len(st.Planes) != len(f.planes) {
		return fmt.Errorf("ftl: snapshot has %d planes, device has %d", len(st.Planes), len(f.planes))
	}
	if len(st.DenseL2P) != len(f.l2p.dense) {
		return fmt.Errorf("ftl: snapshot L2P has %d entries, device needs %d", len(st.DenseL2P), len(f.l2p.dense))
	}
	count := 0
	for _, v := range st.DenseL2P {
		if ppn(v) != noPPN {
			count++
		}
	}
	if count != st.L2PCount {
		return fmt.Errorf("ftl: snapshot L2P count %d does not match its %d entries", st.L2PCount, count)
	}
	pages := f.geom.PagesPerBlock()
	for pl := range st.Planes {
		ps := &st.Planes[pl]
		if len(ps.Blocks) != f.geom.BlocksPerPlane {
			return fmt.Errorf("ftl: snapshot plane %d has %d blocks, device has %d", pl, len(ps.Blocks), f.geom.BlocksPerPlane)
		}
		if ps.Active < -1 || ps.Active >= f.geom.BlocksPerPlane {
			return fmt.Errorf("ftl: snapshot plane %d active block %d out of range", pl, ps.Active)
		}
		for _, idx := range ps.Free {
			if idx < 0 || idx >= f.geom.BlocksPerPlane {
				return fmt.Errorf("ftl: snapshot plane %d free-list block %d out of range", pl, idx)
			}
		}
		for blk := range ps.Blocks {
			bs := &ps.Blocks[blk]
			if !bs.Present {
				continue
			}
			if len(bs.Valid) != pages || len(bs.RMap) != pages || len(bs.WLKeep) != f.geom.WordlinesPerBlock {
				return fmt.Errorf("ftl: snapshot plane %d block %d has wrong table sizes", pl, blk)
			}
			if bs.NextStep < 0 || bs.NextStep > pages {
				return fmt.Errorf("ftl: snapshot plane %d block %d next step %d out of range", pl, blk, bs.NextStep)
			}
		}
	}
	return nil
}
