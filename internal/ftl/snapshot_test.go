package ftl

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// ageRandomly drives the FTL through a randomized history: a skewed
// overwrite-heavy write mix (forcing inline GC), trims, out-of-range LPNs
// (exercising the sparse L2P side), refresh sweeps with the IDA corruption
// draws (advancing the rng stream), and optional stagger. It leaves whatever
// pendingGC the inline path buffered undrained, so the snapshot covers
// mid-GC state.
func ageRandomly(t *testing.T, f *FTL, seed int64, writes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := f.Geometry().TotalPages()
	now := sim.Time(0)
	for i := 0; i < writes; i++ {
		now += sim.Time(rng.Intn(1000)) * sim.Time(time.Microsecond)
		// The total footprint (cold range + sparse overflow) stays around
		// half of capacity so GC can always find reclaimable victims.
		var lpn LPN
		switch rng.Intn(10) {
		case 0: // sparse side: address beyond device capacity
			lpn = LPN(capacity) + LPN(rng.Intn(8))
		case 1, 2: // cold spread
			lpn = LPN(rng.Int63n(capacity / 2))
		default: // hot working set, forces overwrites and GC pressure
			lpn = LPN(rng.Intn(int(capacity) / 8))
		}
		if _, err := f.Write(lpn, now); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if rng.Intn(20) == 0 {
			f.Trim(LPN(rng.Int63n(capacity)))
		}
		if rng.Intn(50) == 0 {
			if _, err := f.DueRefreshes(now); err != nil {
				t.Fatalf("refresh at write %d: %v", i, err)
			}
		}
	}
}

func snapshotOptions(g flash.Geometry, seed int64, fm FaultModel) Options {
	return Options{
		Geometry:      g,
		IDAEnabled:    true,
		ErrorRate:     0.2, // corruption draws advance the rng stream
		RefreshPeriod: 100 * time.Microsecond,
		Seed:          seed,
		Faults:        fm,
	}
}

// TestSnapshotRestoreDeepEqual round-trips randomized FTL states through
// Snapshot/Restore and requires the restored device to be structurally
// identical: re-snapshotting it must reproduce the original State exactly.
func TestSnapshotRestoreDeepEqual(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		for _, g := range []flash.Geometry{tinyGeom(), multiPlaneGeom()} {
			f := mustFTL(t, snapshotOptions(g, seed, nil))
			f.StaggerBlockAges(0) // consume rng draws before the boundary
			ageRandomly(t, f, seed, 400)
			st := f.Snapshot()

			fresh := mustFTL(t, snapshotOptions(g, seed, nil))
			if err := fresh.Restore(st); err != nil {
				t.Fatalf("seed %d: restore: %v", seed, err)
			}
			checkInvariants(t, fresh)
			if got := fresh.Snapshot(); !reflect.DeepEqual(got, st) {
				t.Fatalf("seed %d geom %+v: restored snapshot differs from original", seed, g)
			}
		}
	}
}

// TestSnapshotRestoreBehavioralEquivalence runs the same post-snapshot
// operation sequence on the original device and on a restored copy and
// requires their end states to match, including every rng-dependent decision
// (refresh corruption draws) — the restored rng must sit at the exact stream
// position the original recorded.
func TestSnapshotRestoreBehavioralEquivalence(t *testing.T) {
	const seed = 99
	g := tinyGeom()
	orig := mustFTL(t, snapshotOptions(g, seed, nil))
	ageRandomly(t, orig, seed, 300)
	st := orig.Snapshot()

	restored := mustFTL(t, snapshotOptions(g, seed, nil))
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}

	drive := func(f *FTL) {
		rng := rand.New(rand.NewSource(seed + 1))
		now := sim.Time(500) * sim.Time(time.Microsecond)
		for i := 0; i < 300; i++ {
			now += sim.Time(rng.Intn(1000)) * sim.Time(time.Microsecond)
			if _, err := f.Write(LPN(rng.Int63n(g.TotalPages()/2)), now); err != nil {
				t.Fatalf("write: %v", err)
			}
			if rng.Intn(25) == 0 {
				mustCollectGC(t, f, now)
			}
			if rng.Intn(40) == 0 {
				mustDueRefreshes(t, f, now)
			}
		}
	}
	drive(orig)
	drive(restored)
	checkInvariants(t, restored)
	if !reflect.DeepEqual(orig.Snapshot(), restored.Snapshot()) {
		t.Fatal("original and restored devices diverged under an identical op sequence")
	}
}

// TestSnapshotCoversRetiredBlocks pins that grown-bad and retired blocks
// survive the round trip: a device aged under media faults restores to the
// same block census.
func TestSnapshotCoversRetiredBlocks(t *testing.T) {
	fm := &scriptedFaults{failNextPrograms: 3}
	f := mustFTL(t, snapshotOptions(tinyGeom(), 5, fm))
	ageRandomly(t, f, 5, 300)
	mustCollectGC(t, f, sim.Time(time.Second)) // reclaim empties; retires bad blocks
	st := f.Snapshot()

	bad, retired := 0, 0
	for _, ps := range st.Planes {
		for _, bs := range ps.Blocks {
			if bs.Bad {
				bad++
			}
			if bs.Retired {
				retired++
			}
		}
	}
	if bad == 0 && retired == 0 {
		t.Fatal("fault scenario produced no bad or retired blocks; test is vacuous")
	}

	fresh := mustFTL(t, snapshotOptions(tinyGeom(), 5, fm))
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, fresh)
	if !reflect.DeepEqual(fresh.Snapshot(), st) {
		t.Fatal("restored snapshot differs from original with retired blocks")
	}
}

// TestSnapshotCoversSparseAndPending asserts the randomized aging actually
// exercised the state corners this suite exists for — sparse L2P mappings and
// buffered inline GC — so a regression that silently stops producing them
// does not hollow out the round-trip tests.
func TestSnapshotCoversSparseAndPending(t *testing.T) {
	f := mustFTL(t, snapshotOptions(tinyGeom(), 42, nil))
	ageRandomly(t, f, 42, 400)
	st := f.Snapshot()
	if len(st.SparseL2P) == 0 {
		t.Error("no sparse L2P entries in the aged state")
	}
	if st.DenseL2P == nil {
		t.Error("no dense L2P in the aged state")
	}
	if st.RNGDraws == 0 {
		t.Error("rng never drawn; behavioral equivalence would not test stream position")
	}
	if st.Stats.GCJobs == 0 {
		t.Error("no GC activity in the aged state")
	}
}

// TestRestoreRejectsMismatch verifies Restore's all-or-nothing contract: a
// state that fails validation must leave the device exactly as it was.
func TestRestoreRejectsMismatch(t *testing.T) {
	f := mustFTL(t, snapshotOptions(tinyGeom(), 3, nil))
	ageRandomly(t, f, 3, 100)
	before := f.Snapshot()

	corrupt := func(name string, mutate func(*State)) {
		donor := mustFTL(t, snapshotOptions(tinyGeom(), 3, nil))
		ageRandomly(t, donor, 4, 100)
		st := donor.Snapshot()
		mutate(st)
		if err := f.Restore(st); err == nil {
			t.Errorf("%s: restore accepted a corrupt state", name)
		}
		if !reflect.DeepEqual(f.Snapshot(), before) {
			t.Fatalf("%s: rejected restore mutated the device", name)
		}
	}

	corrupt("geometry", func(st *State) { st.Geometry.BlocksPerPlane++ })
	corrupt("l2p count", func(st *State) { st.L2PCount++ })
	corrupt("plane count", func(st *State) { st.Planes = st.Planes[:0] })
	corrupt("active range", func(st *State) { st.Planes[0].Active = 1 << 20 })
	corrupt("free range", func(st *State) { st.Planes[0].Free = append(st.Planes[0].Free, -1) })
	corrupt("next step", func(st *State) {
		for blk := range st.Planes[0].Blocks {
			if st.Planes[0].Blocks[blk].Present {
				st.Planes[0].Blocks[blk].NextStep = 1 << 20
				return
			}
		}
		t.Fatal("donor state has no present blocks")
	})
	corrupt("table sizes", func(st *State) {
		for blk := range st.Planes[0].Blocks {
			if st.Planes[0].Blocks[blk].Present {
				st.Planes[0].Blocks[blk].Valid = st.Planes[0].Blocks[blk].Valid[:1]
				return
			}
		}
		t.Fatal("donor state has no present blocks")
	})
	if err := f.Restore(nil); err == nil {
		t.Error("restore accepted nil state")
	}
}
