package coding

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tlcMask(l, c, m bool) ValidMask {
	var v ValidMask
	if l {
		v = v.With(LSB)
	}
	if c {
		v = v.With(CSB)
	}
	if m {
		v = v.With(MSB)
	}
	return v
}

func TestClassifyTLCAllCases(t *testing.T) {
	cases := []struct {
		l, c, m bool
		want    WLCase
	}{
		{true, true, true, Case1AllValid},
		{false, true, true, Case2LSBInvalid},
		{true, false, true, Case3CSBInvalid},
		{false, false, true, Case4LowerInvalid},
		{true, true, false, Case5MSBInvalid},
		{false, true, false, Case6OnlyCSBValid},
		{true, false, false, Case7OnlyLSBValid},
		{false, false, false, Case8AllInvalid},
	}
	for _, tc := range cases {
		if got := ClassifyTLC(tlcMask(tc.l, tc.c, tc.m)); got != tc.want {
			t.Errorf("Classify(%v,%v,%v) = %v, want %v", tc.l, tc.c, tc.m, got, tc.want)
		}
	}
}

func TestWLCaseString(t *testing.T) {
	if Case3CSBInvalid.String() != "case3" {
		t.Errorf("Case3 string = %q", Case3CSBInvalid.String())
	}
	if CaseInvalidWL.String() != "case?" {
		t.Errorf("sentinel string = %q", CaseInvalidWL.String())
	}
}

// TestPlanWordlineTableI verifies that the generic planner reproduces the
// paper's Table I exactly for TLC.
func TestPlanWordlineTableI(t *testing.T) {
	c := NewGray(3)
	type want struct {
		apply      bool
		move       []PageType
		keep       ValidMask
		keptSenses map[PageType]int
	}
	cases := map[WLCase]want{
		// Case 1: move LSB; adjust for CSB/MSB (1 and 2 sensings).
		Case1AllValid: {true, []PageType{LSB}, tlcMask(false, true, true), map[PageType]int{CSB: 1, MSB: 2}},
		// Case 2: nothing to move; adjust for CSB/MSB.
		Case2LSBInvalid: {true, nil, tlcMask(false, true, true), map[PageType]int{CSB: 1, MSB: 2}},
		// Case 3: move LSB; adjust for MSB only (1 sensing).
		Case3CSBInvalid: {true, []PageType{LSB}, tlcMask(false, false, true), map[PageType]int{MSB: 1}},
		// Case 4: nothing to move; adjust for MSB only.
		Case4LowerInvalid: {true, nil, tlcMask(false, false, true), map[PageType]int{MSB: 1}},
		// Cases 5-7: plain relocation of the valid pages.
		Case5MSBInvalid:   {false, []PageType{LSB, CSB}, 0, nil},
		Case6OnlyCSBValid: {false, []PageType{CSB}, 0, nil},
		Case7OnlyLSBValid: {false, []PageType{LSB}, 0, nil},
		// Case 8: nothing to do.
		Case8AllInvalid: {false, nil, 0, nil},
	}
	masks := map[WLCase]ValidMask{
		Case1AllValid:     tlcMask(true, true, true),
		Case2LSBInvalid:   tlcMask(false, true, true),
		Case3CSBInvalid:   tlcMask(true, false, true),
		Case4LowerInvalid: tlcMask(false, false, true),
		Case5MSBInvalid:   tlcMask(true, true, false),
		Case6OnlyCSBValid: tlcMask(false, true, false),
		Case7OnlyLSBValid: tlcMask(true, false, false),
		Case8AllInvalid:   0,
	}
	for wc, w := range cases {
		p := c.PlanWordline(masks[wc])
		if p.Apply != w.apply {
			t.Errorf("%v: apply = %v, want %v", wc, p.Apply, w.apply)
		}
		if len(p.Move) != len(w.move) {
			t.Errorf("%v: move = %v, want %v", wc, p.Move, w.move)
		} else {
			for i := range p.Move {
				if p.Move[i] != w.move[i] {
					t.Errorf("%v: move = %v, want %v", wc, p.Move, w.move)
					break
				}
			}
		}
		if p.Keep != w.keep {
			t.Errorf("%v: keep = %b, want %b", wc, p.Keep, w.keep)
		}
		for pt, n := range w.keptSenses {
			if got := c.Merge(p.Keep).Senses(pt); got != n {
				t.Errorf("%v: kept senses[%v] = %d, want %d", wc, pt, got, n)
			}
		}
	}
}

func TestPlanWordlineQLC(t *testing.T) {
	c := NewGray(4)
	// All four pages valid: keep pages 1..3, move page 0; pages sense
	// with 1, 2, 4 sensings afterwards (like a TLC wordline).
	p := c.PlanWordline(MaskAll(4))
	if !p.Apply || len(p.Move) != 1 || p.Move[0] != 0 {
		t.Fatalf("QLC all-valid plan = %+v", p)
	}
	for j, want := range map[PageType]int{1: 1, 2: 2, 3: 4} {
		if got := c.Merge(p.Keep).Senses(j); got != want {
			t.Errorf("QLC kept senses[%d] = %d, want %d", j, got, want)
		}
	}
	// Figure 6 scenario: lower two invalid, keep 2..3 with 1 and 2.
	p = c.PlanWordline(ValidMask(0).With(2).With(3))
	if !p.Apply || len(p.Move) != 0 {
		t.Fatalf("QLC fig6 plan = %+v", p)
	}
	if m := c.Merge(p.Keep); m.Senses(2) != 1 || m.Senses(3) != 2 {
		t.Errorf("QLC fig6 kept senses = %d, %d", m.Senses(2), m.Senses(3))
	}
}

// Property: the plan never keeps the fastest page, always keeps the slowest
// page when it applies, and every valid page is either kept or moved.
func TestPlanWordlineProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(4))}
	prop := func(bitsSeed uint8, maskSeed uint32) bool {
		bitsPerCell := int(bitsSeed)%4 + 1
		c := NewGray(bitsPerCell)
		mask := ValidMask(maskSeed) & MaskAll(bitsPerCell)
		p := c.PlanWordline(mask)
		top := PageType(bitsPerCell - 1)
		if p.Apply != (mask.Has(top) && bitsPerCell > 1) {
			return false
		}
		if p.Apply && bitsPerCell > 1 && p.Keep.Has(0) {
			return false // the fastest page must never be kept
		}
		moved := ValidMask(0)
		for _, j := range p.Move {
			if !mask.Has(j) {
				return false // can only move valid pages
			}
			moved = moved.With(j)
		}
		for j := PageType(0); int(j) < bitsPerCell; j++ {
			if mask.Has(j) && !moved.Has(j) && p.Apply && !p.Keep.Has(j) {
				return false // valid page neither kept nor moved
			}
			if !p.Apply && mask.Has(j) && !moved.Has(j) {
				return false
			}
		}
		// Kept pages must read at least as fast as before.
		for j := PageType(0); int(j) < bitsPerCell; j++ {
			if !p.Keep.Has(j) {
				continue
			}
			if n := c.Merge(p.Keep).Senses(j); n > c.Senses(j) || n < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
