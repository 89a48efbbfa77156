package flash

import (
	"slices"
	"testing"

	"idaflash/internal/coding"
)

func TestProgramOrderCoversAllPagesOnce(t *testing.T) {
	po := NewProgramOrder(64, 3)
	if len(po) != 192 {
		t.Fatalf("len = %d, want 192", len(po))
	}
	seen := make(map[PageRef]bool)
	for i, r := range po {
		if r.WL < 0 || r.WL >= 64 || r.Type < 0 || r.Type >= 3 {
			t.Fatalf("step %d out of range: %+v", i, r)
		}
		if seen[r] {
			t.Fatalf("page %+v programmed twice", r)
		}
		seen[r] = true
	}
}

func TestShadowOrderStaircase(t *testing.T) {
	po := NewProgramOrder(4, 3)
	// Diagonal order for a 4-WL TLC block. Within a diagonal the slower
	// page comes first: M before C before L.
	want := ProgramOrder{
		{0, 0},
		{0, 1}, {1, 0},
		{0, 2}, {1, 1}, {2, 0},
		{1, 2}, {2, 1}, {3, 0},
		{2, 2}, {3, 1},
		{3, 2},
	}
	if !slices.Equal(po, want) {
		t.Errorf("order = %+v, want %+v", po, want)
	}
}

func TestShadowOrderFastPagesBeforeSlow(t *testing.T) {
	// Within any wordline, the fast page must be programmed before the
	// slow pages (you cannot program the CSB of a wordline whose LSB is
	// unwritten).
	po := NewProgramOrder(64, 3)
	for wl := 0; wl < 64; wl++ {
		for b := 1; b < 3; b++ {
			lo := slices.Index(po, PageRef{WL: wl, Type: coding.PageType(b - 1)})
			hi := slices.Index(po, PageRef{WL: wl, Type: coding.PageType(b)})
			if lo >= hi {
				t.Fatalf("WL %d: page %d at step %d not before page %d at step %d", wl, b-1, lo, b, hi)
			}
		}
	}
}

func TestNewProgramOrderPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewProgramOrder(0, 3) },
		func() { NewProgramOrder(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
