package ftl

import (
	"math/rand"
	"testing"
	"time"

	"idaflash/internal/sim"
)

// TestL2PTableBasics exercises the dense/sparse split directly: in-range
// LPNs land in the dense slice, out-of-range and negative LPNs fall back to
// the map, and the count tracks both sides.
func TestL2PTableBasics(t *testing.T) {
	tab := newL2P(8)
	tab.reset()
	if _, ok := tab.get(3); ok {
		t.Fatal("empty table reports LPN 3 mapped")
	}
	tab.set(3, ppn(30))
	tab.set(100, ppn(42)) // beyond capacity -> sparse side
	tab.set(-5, ppn(7))   // negative -> sparse side
	if tab.len() != 3 {
		t.Fatalf("len = %d, want 3", tab.len())
	}
	for _, tc := range []struct {
		lpn LPN
		p   ppn
	}{{3, 30}, {100, 42}, {-5, 7}} {
		got, ok := tab.get(tc.lpn)
		if !ok || got != tc.p {
			t.Fatalf("get(%d) = %v,%v want %v,true", tc.lpn, got, ok, tc.p)
		}
	}
	tab.set(3, ppn(31)) // overwrite must not double-count
	if tab.len() != 3 {
		t.Fatalf("len after overwrite = %d, want 3", tab.len())
	}
	tab.remove(3)
	tab.remove(100)
	tab.remove(100) // removing an unmapped LPN is a no-op
	if tab.len() != 1 {
		t.Fatalf("len after removes = %d, want 1", tab.len())
	}
	if _, ok := tab.get(3); ok {
		t.Fatal("removed LPN 3 still mapped")
	}
}

// TestL2PDenseSparseEquivalence drives two identically-seeded FTLs — one
// with the dense table, one forced onto the pure sparse fallback — through
// the same randomized write/trim/read/GC/refresh sequence and requires
// identical observable behavior at every step. The dense slice is a pure
// representation change; any divergence here is a correctness bug.
func TestL2PDenseSparseEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260806} {
		opts := Options{
			Geometry:      tinyGeom(),
			IDAEnabled:    true,
			ErrorRate:     0.2,
			RefreshPeriod: time.Hour,
			Seed:          seed,
		}
		dense := mustFTL(t, opts)
		sparse := mustFTL(t, opts)
		sparse.l2p = newL2P(0) // capacity 0 -> map-only table
		if len(dense.l2p.dense) == 0 {
			t.Fatal("dense FTL did not get a dense table")
		}

		lpns := dense.geom.TotalPages() / 2 // overwrite pressure
		rng := rand.New(rand.NewSource(seed))
		now := sim.Time(0)
		for step := 0; step < 4000; step++ {
			now += sim.Time(rng.Intn(int(time.Minute)))
			lpn := LPN(rng.Int63n(lpns))
			switch rng.Intn(10) {
			case 0: // trim
				dense.Trim(lpn)
				sparse.Trim(lpn)
			case 1, 2, 3: // read
				di, dok := dense.Read(lpn)
				si, sok := sparse.Read(lpn)
				if dok != sok || di != si {
					t.Fatalf("seed %d step %d: Read(%d) diverged: %+v,%v vs %+v,%v",
						seed, step, lpn, di, dok, si, sok)
				}
			default: // write
				dp, derr := dense.Write(lpn, now)
				sp, serr := sparse.Write(lpn, now)
				if (derr == nil) != (serr == nil) || dp != sp {
					t.Fatalf("seed %d step %d: Write(%d) diverged: %+v,%v vs %+v,%v",
						seed, step, lpn, dp, derr, sp, serr)
				}
			}
			if step%97 == 0 {
				dj := mustCollectGC(t, dense, now)
				sj := mustCollectGC(t, sparse, now)
				if len(dj) != len(sj) {
					t.Fatalf("seed %d step %d: GC job counts diverged: %d vs %d", seed, step, len(dj), len(sj))
				}
			}
			if step%523 == 0 {
				dr := mustDueRefreshes(t, dense, now)
				sr := mustDueRefreshes(t, sparse, now)
				if len(dr) != len(sr) {
					t.Fatalf("seed %d step %d: refresh job counts diverged: %d vs %d", seed, step, len(dr), len(sr))
				}
			}
			if dense.MappedPages() != sparse.MappedPages() {
				t.Fatalf("seed %d step %d: MappedPages diverged: %d vs %d",
					seed, step, dense.MappedPages(), sparse.MappedPages())
			}
		}
		if dense.Stats() != sparse.Stats() {
			t.Fatalf("seed %d: final stats diverged:\ndense:  %+v\nsparse: %+v",
				seed, dense.Stats(), sparse.Stats())
		}
		checkInvariants(t, dense)
		checkInvariants(t, sparse)
	}
}
