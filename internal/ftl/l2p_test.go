package ftl

import (
	"reflect"
	"testing"
)

// TestL2PTableBasics exercises the table directly: in-range LPNs map and
// unmap, the count tracks them, and LPNs outside the capacity are never
// mapped.
func TestL2PTableBasics(t *testing.T) {
	tab := newL2P(8)
	tab.reset()
	if _, ok := tab.get(3); ok {
		t.Fatal("empty table reports LPN 3 mapped")
	}
	tab.set(3, ppn(30))
	tab.set(7, ppn(42))
	if tab.len() != 2 {
		t.Fatalf("len = %d, want 2", tab.len())
	}
	for _, tc := range []struct {
		lpn LPN
		p   ppn
	}{{3, 30}, {7, 42}} {
		got, ok := tab.get(tc.lpn)
		if !ok || got != tc.p {
			t.Fatalf("get(%d) = %v,%v want %v,true", tc.lpn, got, ok, tc.p)
		}
	}
	for _, lpn := range []LPN{-1, 8, 1 << 40} {
		if tab.inRange(lpn) {
			t.Errorf("LPN %d reported in range of an 8-page table", lpn)
		}
		if _, ok := tab.get(lpn); ok {
			t.Errorf("out-of-range LPN %d reported mapped", lpn)
		}
	}
	tab.set(3, ppn(31)) // overwrite must not double-count
	if tab.len() != 2 {
		t.Fatalf("len after overwrite = %d, want 2", tab.len())
	}
	tab.remove(3)
	tab.remove(3) // removing an unmapped LPN is a no-op
	if tab.len() != 1 {
		t.Fatalf("len after removes = %d, want 1", tab.len())
	}
	if _, ok := tab.get(3); ok {
		t.Fatal("removed LPN 3 still mapped")
	}
}

// TestOutOfRangeLPNs pins the contract for an LPN outside [0, capacity):
// Write fails and changes no state, Read reports the page unmapped, and
// Trim does nothing.
func TestOutOfRangeLPNs(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom(), IDAEnabled: true, RefreshPeriod: 10 * hour, Seed: 1})
	for i := LPN(0); i < 20; i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	capacity := LPN(tinyGeom().TotalPages())
	before, stats := f.Snapshot(), f.Stats()
	for _, lpn := range []LPN{-1, -capacity, capacity, capacity + 1, 1 << 40} {
		if prog, err := f.Write(lpn, hour); err == nil {
			t.Errorf("Write(%d) = %+v, want an out-of-range error", lpn, prog)
		}
		if info, ok := f.Read(lpn); ok {
			t.Errorf("Read(%d) = %+v, want unmapped", lpn, info)
		}
		f.Trim(lpn)
	}
	// Read of an unmapped LPN counts nothing, so the whole state, stats
	// included, is untouched.
	if !reflect.DeepEqual(f.Snapshot(), before) {
		t.Fatal("out-of-range operations changed the FTL state")
	}
	if got := f.Stats(); got != stats {
		t.Fatalf("out-of-range operations changed the stats: %+v, want %+v", got, stats)
	}
	checkInvariants(t, f)
}
