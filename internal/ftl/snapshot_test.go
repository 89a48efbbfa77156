package ftl

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// ageLikeRun ages the FTL the way ssd.RunContext's zero-time phases do:
// requests of one to four consecutive LPNs written at time 0 from a skewed,
// overwrite-heavy mix (forcing GC), each followed by a CollectGC drain, then
// CloseActiveBlocks. Media faults come from the FTL's own Options. There is
// no refresh and no stagger, so the device ends at the aging boundary.
func ageLikeRun(t *testing.T, f *FTL, seed int64, requests int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := f.geom.TotalPages()
	for i := 0; i < requests; i++ {
		// The footprint stays around half of capacity so GC can always
		// find reclaimable victims.
		var first LPN
		switch rng.Intn(10) {
		case 0, 1, 2: // cold spread
			first = LPN(rng.Int63n(capacity/2 - 4))
		default: // hot working set, forces overwrites and GC pressure
			first = LPN(rng.Intn(int(capacity) / 8))
		}
		for n := LPN(1 + rng.Intn(4)); n > 0; n-- {
			if _, err := f.Write(first+n-1, 0); err != nil {
				t.Fatalf("request %d: write: %v", i, err)
			}
		}
		mustCollectGC(t, f, 0)
	}
	f.CloseActiveBlocks()
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

// TestSnapshotRestoreDeepEqual round-trips randomized aged FTL states
// through Snapshot/Restore and requires the restored device to be
// structurally identical: re-snapshotting it must reproduce the original
// State exactly.
func TestSnapshotRestoreDeepEqual(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		for _, g := range []flash.Geometry{tinyGeom(), multiPlaneGeom()} {
			f := mustFTL(t, snapshotOptions(g, seed, nil))
			ageLikeRun(t, f, seed, 300)
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
// requires their end states and stats to match, including every
// rng-dependent decision (refresh corruption draws). Aging draws nothing
// from the FTL rng, so both devices draw from the start of the stream.
func TestSnapshotRestoreBehavioralEquivalence(t *testing.T) {
	const seed = 99
	g := tinyGeom()
	orig := mustFTL(t, snapshotOptions(g, seed, nil))
	ageLikeRun(t, orig, seed, 200)
	st := orig.Snapshot()
	orig.ResetStats() // as RunContext does after the boundary

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
	if orig.Stats().IDACorruptedWrites == 0 {
		t.Fatal("no corruption draws after the boundary; the rng stream went untested")
	}
	if orig.Stats() != restored.Stats() {
		t.Fatalf("stats diverged: original %+v, restored %+v", orig.Stats(), restored.Stats())
	}
	mustCollectGC(t, orig, 0)
	mustCollectGC(t, restored, 0)
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
	ageLikeRun(t, f, 5, 200)
	st := f.Snapshot()

	bad, retired := 0, 0
	for _, bs := range st.Blocks {
		if bs.Bad {
			bad++
		}
		if bs.Retired {
			retired++
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

// TestBoundaryAgingExercisesGC asserts the aging helper actually reaches
// the state this suite exists for — a populated L2P shaped by garbage
// collection — so a regression that silently stops producing it does not
// hollow out the round-trip tests.
func TestBoundaryAgingExercisesGC(t *testing.T) {
	f := mustFTL(t, snapshotOptions(tinyGeom(), 42, nil))
	ageLikeRun(t, f, 42, 300)
	if f.Stats().GCJobs == 0 || f.Stats().GCMoves == 0 {
		t.Errorf("aging ran no GC moves: %+v", f.Stats())
	}
	if st := f.Snapshot(); st.L2PCount == 0 {
		t.Error("no mapped LPNs in the aged state")
	}
}

// TestSnapshotPanicsWithPendingGC: State cannot carry buffered inline GC,
// so Snapshot refuses a device whose inline GC has not been drained.
func TestSnapshotPanicsWithPendingGC(t *testing.T) {
	f := mustFTL(t, snapshotOptions(tinyGeom(), 8, nil))
	for lpn := LPN(0); len(f.pendingGC) == 0; lpn = (lpn + 1) % 16 {
		if _, err := f.Write(lpn, 0); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot with pending inline GC did not panic")
		}
	}()
	f.Snapshot()
}

// TestRestoreRejectsMismatch verifies Restore's all-or-nothing contract: a
// state that fails validation must leave the device exactly as it was.
func TestRestoreRejectsMismatch(t *testing.T) {
	f := mustFTL(t, snapshotOptions(tinyGeom(), 3, nil))
	ageLikeRun(t, f, 3, 60)
	before := f.Snapshot()

	corrupt := func(name string, mutate func(*State)) {
		donor := mustFTL(t, snapshotOptions(tinyGeom(), 3, nil))
		ageLikeRun(t, donor, 4, 60)
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
	corrupt("l2p length", func(st *State) {
		last := len(st.DenseL2P) - 1
		if st.DenseL2P[last] != noPPN {
			st.L2PCount-- // keep the count consistent so only the length is wrong
		}
		st.DenseL2P = st.DenseL2P[:last]
	})
	corrupt("plane count", func(st *State) { st.Planes = st.Planes[:0] })
	corrupt("active range", func(st *State) { st.Planes[0].Active = 1 << 20 })
	corrupt("free range", func(st *State) { st.Planes[0].Free = append(st.Planes[0].Free, -1) })
	corrupt("alloc cursor", func(st *State) { st.AllocCursor = len(f.cwdp) })
	corrupt("block count", func(st *State) { st.Blocks = st.Blocks[1:] })
	corrupt("next step", func(st *State) {
		for gb := range st.Blocks {
			if st.Blocks[gb].NextStep > 0 {
				st.Blocks[gb].NextStep = 1 << 20
				return
			}
		}
		t.Fatal("donor state has no programmed blocks")
	})
	corrupt("unprogrammed block", func(st *State) {
		for gb := range st.Blocks {
			if st.Blocks[gb].NextStep > 0 {
				st.Blocks[gb].NextStep = 0 // its masks and entries no longer have an owner
				return
			}
		}
		t.Fatal("donor state has no programmed blocks")
	})
	corrupt("reverse-map length", func(st *State) { st.RMap = st.RMap[1:] })
	corrupt("keep-mask length", func(st *State) { st.WLKeep = st.WLKeep[1:] })
	corrupt("mask width", func(st *State) { st.WLValid[0] = 1 << 3 })
	if err := f.Restore(nil); err == nil {
		t.Error("restore accepted nil state")
	}
}
