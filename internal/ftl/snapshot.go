package ftl

import (
	"fmt"
	"slices"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// State is a deep, self-contained copy of what the zero-time aging phases
// leave in an FTL: the L2P table, the block table, the wordline masks and
// reverse map of every programmed block, and every plane's free list and
// active block with the allocation cursor. It exists so device-state
// snapshots (internal/snapshot) can serialize an aged device and later runs
// can restore it in O(state) instead of replaying the aging preamble.
//
// It holds nothing else because the aging boundary has nothing else: no
// inline GC is buffered (every aging write is drained), no refresh is in
// progress, the rng is undrawn, and the stats counters are zeroed by
// ResetStats right after the boundary on every path.
//
// A State shares no memory with the FTL that produced it, and Restore
// installs fresh copies too — one cached State can seed any number of
// devices, concurrently.
type State struct {
	// Geometry is the device shape the state was captured from; Restore
	// rejects a mismatch (a mis-keyed snapshot) rather than installing
	// tables of the wrong dimensions.
	Geometry flash.Geometry

	// DenseL2P mirrors the mapping slice, one packed 32-bit PPN per page
	// of capacity (the all-ones unmapped sentinel preserved). L2PCount is
	// the mapped-LPN count, recomputed and cross-checked on restore.
	DenseL2P []uint32
	L2PCount int

	Planes      []PlaneState
	AllocCursor int

	// Blocks is the block table, indexed by global block id
	// (plane*BlocksPerPlane + block).
	Blocks []BlockState
	// WLValid and WLKeep hold the validity and kept-page masks of every
	// wordline, and RMap the reverse-map entry of every page, of the
	// blocks with NextStep > 0, concatenated in block-id order. Every
	// other block's masks and entries are zero.
	WLValid, WLKeep []uint8
	RMap            []uint32
}

// PlaneState is one plane's allocation state.
type PlaneState struct {
	Active int
	Free   []int // free block indexes, LIFO order preserved
}

// BlockState is one block-status-table entry, both in a State and in the
// live FTL's block table. The zero value is a never-programmed block.
type BlockState struct {
	EraseCount   int
	OpenedAt     sim.Time // time the block started accepting programs
	ProgrammedAt sim.Time // retention clock start (set when the block closes)
	NextStep     int      // next program-order step; PagesPerBlock when full
	ValidCount   int
	IDA          bool // reprogrammed with the IDA coding
	Refreshed    bool // already refreshed once this cycle (await reclaim)
	Bad          bool // a program failed here; retire at the next erase
	Retired      bool // permanently out of service (grown bad block)
}

// Snapshot captures the FTL's state at the aging boundary as a deep copy.
// The caller must have drained inline GC (CollectGC); Snapshot panics
// otherwise, since State cannot carry pending jobs. A refresh always runs
// to completion inside one FTL call, so none is in progress here. Snapshot
// does not record the rng position or the stats counters: at the boundary
// the first is the stream's start and the second is discarded.
func (f *FTL) Snapshot() *State {
	if len(f.pendingGC) > 0 {
		panic(fmt.Sprintf("ftl: Snapshot with %d pending GC jobs", len(f.pendingGC)))
	}
	st := &State{
		Geometry:    f.geom,
		DenseL2P:    slices.Clone(f.l2p.dense),
		L2PCount:    f.l2p.count,
		AllocCursor: f.allocCursor,
		Blocks:      slices.Clone(f.blocks),
	}
	st.Planes = make([]PlaneState, len(f.planes))
	for pl, ps := range f.planes {
		st.Planes[pl] = PlaneState{Active: ps.active, Free: append([]int(nil), ps.free...)}
	}
	programmed := 0
	for _, b := range f.blocks {
		if b.NextStep > 0 {
			programmed++
		}
	}
	wls, pages := f.geom.WordlinesPerBlock, len(f.coords)
	st.WLValid = make([]uint8, 0, programmed*wls)
	st.WLKeep = make([]uint8, 0, programmed*wls)
	st.RMap = make([]uint32, 0, programmed*pages)
	for gb, b := range f.blocks {
		if b.NextStep > 0 {
			valid, keep, rmap := f.blockTables(gb)
			st.WLValid = append(st.WLValid, valid...)
			st.WLKeep = append(st.WLKeep, keep...)
			st.RMap = append(st.RMap, rmap...)
		}
	}
	return st
}

// Restore replaces the FTL's tables with a deep copy of st, as if the writes
// that produced st had just been replayed on this instance. It installs onto
// an FTL as New or Reset left it: no GC pending, no refresh in progress, the
// rng at the start of its stream and the stats zero, none of which Restore
// touches. The FTL must have been built with the same geometry (and, for
// identical subsequent behavior, the same seed — the snapshot cache key pins
// it). Restore validates shapes and internal consistency and returns an
// error without touching the FTL on any mismatch, so a corrupt or mis-keyed
// snapshot degrades to an ordinary replay instead of a poisoned run.
//
// The copy lands in the FTL's existing storage: every table is overwritten
// in place, so a warm run on a pooled device restores without a fresh deep
// copy. st itself is never aliased or mutated — one cached State can still
// seed any number of devices, concurrently.
func (f *FTL) Restore(st *State) error {
	if err := f.validateState(st); err != nil {
		return err
	}

	// Validation passed; everything below is infallible copying.
	copy(f.l2p.dense, st.DenseL2P)
	f.l2p.count = st.L2PCount
	copy(f.blocks, st.Blocks)
	for pl, ps := range st.Planes {
		np := f.planes[pl]
		np.active = ps.Active
		np.free = append(np.free[:0], ps.Free...)
	}
	wls, pages := f.geom.WordlinesPerBlock, len(f.coords)
	wlValid, wlKeep, rmap := st.WLValid, st.WLKeep, st.RMap
	for gb, b := range f.blocks {
		dv, dk, dr := f.blockTables(gb)
		if b.NextStep == 0 {
			clear(dv)
			clear(dk)
			clear(dr)
			continue
		}
		copy(dv, wlValid)
		copy(dk, wlKeep)
		copy(dr, rmap)
		wlValid, wlKeep, rmap = wlValid[wls:], wlKeep[wls:], rmap[pages:]
	}
	f.allocCursor = st.AllocCursor
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
		if v != noPPN {
			count++
		}
	}
	if count != st.L2PCount {
		return fmt.Errorf("ftl: snapshot L2P count %d does not match its %d entries", st.L2PCount, count)
	}
	if st.AllocCursor < 0 || st.AllocCursor >= len(f.cwdp) {
		return fmt.Errorf("ftl: snapshot allocation cursor %d out of range", st.AllocCursor)
	}
	for pl := range st.Planes {
		ps := &st.Planes[pl]
		if ps.Active < -1 || ps.Active >= f.geom.BlocksPerPlane {
			return fmt.Errorf("ftl: snapshot plane %d active block %d out of range", pl, ps.Active)
		}
		for _, idx := range ps.Free {
			if idx < 0 || idx >= f.geom.BlocksPerPlane {
				return fmt.Errorf("ftl: snapshot plane %d free-list block %d out of range", pl, idx)
			}
		}
	}
	if len(st.Blocks) != len(f.blocks) {
		return fmt.Errorf("ftl: snapshot has %d blocks, device has %d", len(st.Blocks), len(f.blocks))
	}
	programmed := 0
	for gb := range st.Blocks {
		if n := st.Blocks[gb].NextStep; n < 0 || n > len(f.order) {
			return fmt.Errorf("ftl: snapshot block %d next step %d out of range", gb, n)
		} else if n > 0 {
			programmed++
		}
	}
	wls := programmed * f.geom.WordlinesPerBlock
	if len(st.WLValid) != wls || len(st.WLKeep) != wls || len(st.RMap) != programmed*len(f.coords) {
		return fmt.Errorf("ftl: snapshot wordline and reverse-map tables do not cover its %d programmed blocks", programmed)
	}
	all := uint8(coding.MaskAll(f.geom.BitsPerCell))
	for i := range st.WLValid {
		if st.WLValid[i]&^all != 0 || st.WLKeep[i]&^all != 0 {
			return fmt.Errorf("ftl: snapshot wordline mask beyond %d bits per cell", f.geom.BitsPerCell)
		}
	}
	return nil
}
