package flash

import (
	"testing"

	"idaflash/internal/coding"
)

func TestProgramOrderCoversAllPagesOnce(t *testing.T) {
	for _, kind := range []OrderKind{OrderShadow, OrderSequential} {
		po := NewProgramOrder(64, 3, kind)
		if po.Len() != 192 {
			t.Fatalf("%v: len = %d, want 192", kind, po.Len())
		}
		seen := make(map[PageRef]bool)
		for i := 0; i < po.Len(); i++ {
			r := po.At(i)
			if r.WL < 0 || r.WL >= 64 || r.Type < 0 || r.Type >= 3 {
				t.Fatalf("%v: step %d out of range: %+v", kind, i, r)
			}
			if seen[r] {
				t.Fatalf("%v: page %+v programmed twice", kind, r)
			}
			seen[r] = true
			if po.StepOf(r) != i {
				t.Errorf("%v: StepOf(%+v) = %d, want %d", kind, r, po.StepOf(r), i)
			}
		}
	}
}

func TestShadowOrderStaircase(t *testing.T) {
	po := NewProgramOrder(4, 3, OrderShadow)
	// Diagonal order for a 4-WL TLC block. Within a diagonal the slower
	// page comes first: M before C before L.
	want := []PageRef{
		{0, 0},
		{0, 1}, {1, 0},
		{0, 2}, {1, 1}, {2, 0},
		{1, 2}, {2, 1}, {3, 0},
		{2, 2}, {3, 1},
		{3, 2},
	}
	if po.Len() != len(want) {
		t.Fatalf("len = %d, want %d", po.Len(), len(want))
	}
	for i, w := range want {
		if po.At(i) != w {
			t.Errorf("step %d = %+v, want %+v", i, po.At(i), w)
		}
	}
}

func TestShadowOrderFastPagesBeforeSlow(t *testing.T) {
	// Within any wordline, the fast page must be programmed before the
	// slow pages (you cannot program the CSB of a wordline whose LSB is
	// unwritten).
	po := NewProgramOrder(64, 3, OrderShadow)
	for wl := 0; wl < 64; wl++ {
		for b := 1; b < 3; b++ {
			lo := po.StepOf(PageRef{WL: wl, Type: coding.PageType(b - 1)})
			hi := po.StepOf(PageRef{WL: wl, Type: coding.PageType(b)})
			if lo >= hi {
				t.Fatalf("WL %d: page %d at step %d not before page %d at step %d", wl, b-1, lo, b, hi)
			}
		}
	}
}

func TestSequentialOrder(t *testing.T) {
	po := NewProgramOrder(2, 2, OrderSequential)
	want := []PageRef{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i, w := range want {
		if po.At(i) != w {
			t.Errorf("step %d = %+v, want %+v", i, po.At(i), w)
		}
	}
}

func TestOrderKindString(t *testing.T) {
	if OrderShadow.String() != "shadow" || OrderSequential.String() != "sequential" {
		t.Error("OrderKind names wrong")
	}
	if OrderKind(99).String() == "" {
		t.Error("unknown OrderKind should still render")
	}
}

func TestNewProgramOrderPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewProgramOrder(0, 3, OrderShadow) },
		func() { NewProgramOrder(4, 0, OrderShadow) },
		func() { NewProgramOrder(4, 3, OrderKind(99)) },
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
