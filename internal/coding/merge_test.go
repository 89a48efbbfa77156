package coding

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// mergedReadLevels lists the read voltages page j needs after the merge m:
// one at every boundary between consecutive reachable states where the
// bit's value changes, placed just below the upper state, as the paper's
// figures do.
func mergedReadLevels(m *Merged, j PageType) []int {
	var levels []int
	r := m.Reachable()
	for i := 0; i+1 < len(r); i++ {
		if m.scheme.Value(r[i], j) != m.scheme.Value(r[i+1], j) {
			levels = append(levels, r[i+1]-1)
		}
	}
	return levels
}

func TestMergeTLCLSBInvalid(t *testing.T) {
	// Figure 5: LSB invalid; S1..S4 move to S8..S5; CSB needs 1 sensing
	// (V6), MSB needs 2 sensings (V5, V7).
	c := NewGray(3)
	m := c.Merge(MaskAll(3).Without(LSB))

	wantTargets := []int{7, 6, 5, 4, 4, 5, 6, 7} // S1->S8, S2->S7, S3->S6, S4->S5, S5..S8 stay
	for s, want := range wantTargets {
		if got := m.Target(s); got != want {
			t.Errorf("target(S%d) = S%d, want S%d", s+1, got+1, want+1)
		}
	}
	if got := m.Reachable(); len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Errorf("reachable = %v, want [4 5 6 7]", got)
	}
	if got := m.Senses(CSB); got != 1 {
		t.Errorf("CSB senses = %d, want 1", got)
	}
	if got := m.Senses(MSB); got != 2 {
		t.Errorf("MSB senses = %d, want 2", got)
	}
	if got := m.Senses(LSB); got != 0 {
		t.Errorf("LSB senses = %d, want 0 (invalid)", got)
	}
	// Figure 5 read voltages: CSB uses V6 (level 5); MSB uses V5,V7 (4,6).
	if lv := mergedReadLevels(m, CSB); len(lv) != 1 || lv[0] != 5 {
		t.Errorf("CSB read levels = %v, want [5]", lv)
	}
	if lv := mergedReadLevels(m, MSB); len(lv) != 2 || lv[0] != 4 || lv[1] != 6 {
		t.Errorf("MSB read levels = %v, want [4 6]", lv)
	}
}

func TestMergeTLCLowerTwoInvalid(t *testing.T) {
	// Table I cases 3-4: only the MSB kept; 8 states merge into 2 and
	// the MSB read needs a single sensing.
	c := NewGray(3)
	m := c.Merge(ValidMask(0).With(MSB))
	if got := len(m.Reachable()); got != 2 {
		t.Fatalf("reachable states = %d, want 2", got)
	}
	if got := m.Senses(MSB); got != 1 {
		t.Errorf("MSB senses = %d, want 1", got)
	}
}

func TestMergeQLCFigure6(t *testing.T) {
	// Figure 6: QLC with the two lower bits invalid. Bits 4 and 3 (our
	// pages 3 and 2) drop from 8 and 4 sensings to 2 and 1.
	c := NewGray(4)
	mask := ValidMask(0).With(2).With(3)
	m := c.Merge(mask)
	if got := len(m.Reachable()); got != 4 {
		t.Fatalf("reachable states = %d, want 4", got)
	}
	if got := m.Senses(3); got != 2 {
		t.Errorf("bit4 senses = %d, want 2 (was %d)", got, c.Senses(3))
	}
	if got := m.Senses(2); got != 1 {
		t.Errorf("bit3 senses = %d, want 1 (was %d)", got, c.Senses(2))
	}
}

func TestMergeFullMaskIsIdentity(t *testing.T) {
	for bitsPerCell := 1; bitsPerCell <= 4; bitsPerCell++ {
		c := NewGray(bitsPerCell)
		m := c.Merge(MaskAll(bitsPerCell))
		for s := 0; s < c.States(); s++ {
			if m.Target(s) != s {
				t.Errorf("%d-bit full-mask target(S%d) = S%d", bitsPerCell, s+1, m.Target(s)+1)
			}
		}
		for j := 0; j < bitsPerCell; j++ {
			if m.Senses(PageType(j)) != c.Senses(PageType(j)) {
				t.Errorf("%d-bit full-mask senses(%d) changed", bitsPerCell, j)
			}
		}
	}
}

func TestMergeEmptyMaskCollapsesToTop(t *testing.T) {
	c := NewGray(3)
	m := c.Merge(0)
	if got := len(m.Reachable()); got != 1 {
		t.Fatalf("reachable = %d states, want 1", got)
	}
	if m.Reachable()[0] != c.States()-1 {
		t.Errorf("empty-mask target = S%d, want top state", m.Reachable()[0]+1)
	}
}

func TestMergeOnlyCSBInvalid(t *testing.T) {
	// Keeping LSB pins many states: with only the CSB invalid, the MSB
	// still needs 3 sensings, which is why Table I case 3 moves the LSB
	// out instead of merging around it.
	c := NewGray(3)
	m := c.Merge(MaskAll(3).Without(CSB))
	if got := m.Senses(LSB); got != 1 {
		t.Errorf("LSB senses = %d, want 1", got)
	}
	if got := m.Senses(MSB); got != 3 {
		t.Errorf("MSB senses = %d, want 3", got)
	}
}

func TestMoveDistance(t *testing.T) {
	c := NewGray(3)
	m := c.Merge(MaskAll(3).Without(LSB))
	total, max := m.MoveDistance()
	// S1 moves 7, S2 moves 5, S3 moves 3, S4 moves 1; rest stay.
	if total != 16 || max != 7 {
		t.Errorf("move distance = (%d,%d), want (16,7)", total, max)
	}
	// Full mask: nothing moves.
	total, max = c.Merge(MaskAll(3)).MoveDistance()
	if total != 0 || max != 0 {
		t.Errorf("identity move distance = (%d,%d), want (0,0)", total, max)
	}
}

func TestMergedAccessors(t *testing.T) {
	c := NewGray(3)
	mask := MaskAll(3).Without(LSB)
	m := c.Merge(mask)
	if c.Merge(mask) != m {
		t.Error("Merge should return the shared precomputed result")
	}
	if m.String() == "" {
		t.Error("String() should not be empty")
	}
}

// Property: merging never moves a cell downward (ISPP can only add charge),
// and never changes the value of any valid bit.
func TestMergePropertyMonotoneAndValuePreserving(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(1)),
		Values:   nil,
	}
	prop := func(bitsSeed uint8, maskSeed uint32) bool {
		bitsPerCell := int(bitsSeed)%4 + 1
		c := NewGray(bitsPerCell)
		mask := ValidMask(maskSeed) & MaskAll(bitsPerCell)
		m := c.Merge(mask)
		for s := 0; s < c.States(); s++ {
			tgt := m.Target(s)
			if tgt < s {
				return false
			}
			for j := 0; j < bitsPerCell; j++ {
				if mask.Has(PageType(j)) && c.Value(tgt, PageType(j)) != c.Value(s, PageType(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: after merging, the sensing count of every valid bit never
// exceeds its conventional count, and the post-merge read levels recover the
// correct bit value for every reachable state.
func TestMergePropertySensesShrinkAndDecode(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	prop := func(bitsSeed uint8, maskSeed uint32) bool {
		bitsPerCell := int(bitsSeed)%4 + 1
		c := NewGray(bitsPerCell)
		mask := ValidMask(maskSeed) & MaskAll(bitsPerCell)
		m := c.Merge(mask)
		for j := 0; j < bitsPerCell; j++ {
			pt := PageType(j)
			if !mask.Has(pt) {
				continue
			}
			if m.Senses(pt) > c.Senses(pt) {
				return false
			}
			levels := mergedReadLevels(m, pt)
			if len(levels) != m.Senses(pt) {
				return false
			}
			// Decode every reachable state using only the merged
			// read levels: count levels at/above the state and
			// toggle from the lowest reachable state's value.
			low := m.Reachable()[0]
			for _, s := range m.Reachable() {
				toggles := 0
				for _, v := range levels {
					if v >= low && v < s {
						toggles++
					}
				}
				want := c.Value(s, pt)
				got := c.Value(low, pt)
				if toggles%2 == 1 {
					got ^= 1
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the number of reachable states equals 2^(valid bits) for the
// Gray coding, so merging under k valid bits always reaches exactly the
// granularity of a k-bit cell.
func TestMergePropertyReachableCount(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	prop := func(bitsSeed uint8, maskSeed uint32) bool {
		bitsPerCell := int(bitsSeed)%4 + 1
		c := NewGray(bitsPerCell)
		mask := ValidMask(maskSeed) & MaskAll(bitsPerCell)
		m := c.Merge(mask)
		return len(m.Reachable()) == 1<<uint(bits.OnesCount32(uint32(mask)))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestValidMaskOps(t *testing.T) {
	m := MaskAll(3)
	if m != 0b111 {
		t.Errorf("MaskAll(3) = %b", m)
	}
	m = m.Without(CSB)
	if m.Has(CSB) || !m.Has(LSB) || !m.Has(MSB) {
		t.Errorf("Without(CSB) wrong: %b", m)
	}
	m = m.With(CSB)
	if m != MaskAll(3) {
		t.Errorf("With(CSB) wrong: %b", m)
	}
}
