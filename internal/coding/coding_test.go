package coding

import (
	"testing"
)

// tlcStates is the conventional TLC coding of Figure 2, written as
// (LSB, CSB, MSB) per state, S1 (erased) through S8.
var tlcStates = [][3]uint8{
	{1, 1, 1}, // S1
	{1, 1, 0}, // S2
	{1, 0, 0}, // S3
	{1, 0, 1}, // S4
	{0, 0, 1}, // S5
	{0, 0, 0}, // S6
	{0, 1, 0}, // S7
	{0, 1, 1}, // S8
}

func TestGrayTLCMatchesFigure2(t *testing.T) {
	c := NewGray(3)
	if c.Bits() != 3 || c.States() != 8 {
		t.Fatalf("got %d bits %d states, want 3/8", c.Bits(), c.States())
	}
	for s, want := range tlcStates {
		for j := 0; j < 3; j++ {
			if got := c.Value(s, PageType(j)); got != want[j] {
				t.Errorf("state S%d bit %v = %d, want %d", s+1, PageType(j), got, want[j])
			}
		}
	}
}

func TestGrayTLCReadVoltages(t *testing.T) {
	c := NewGray(3)
	// Figure 2: LSB uses V4; CSB uses V2,V6; MSB uses V1,V3,V5,V7.
	// Our levels are 0-based boundaries: Vk corresponds to level k-1.
	checks := []struct {
		page PageType
		want []int
	}{
		{LSB, []int{3}},
		{CSB, []int{1, 5}},
		{MSB, []int{0, 2, 4, 6}},
	}
	for _, ck := range checks {
		got := c.readLevels[ck.page]
		if len(got) != len(ck.want) {
			t.Fatalf("%v read levels = %v, want %v", ck.page, got, ck.want)
		}
		for i := range got {
			if got[i] != ck.want[i] {
				t.Errorf("%v read levels = %v, want %v", ck.page, got, ck.want)
				break
			}
		}
	}
}

func TestGraySenseCounts(t *testing.T) {
	for bitsPerCell := 1; bitsPerCell <= 4; bitsPerCell++ {
		c := NewGray(bitsPerCell)
		for j := 0; j < bitsPerCell; j++ {
			want := 1 << uint(j)
			if got := c.Senses(PageType(j)); got != want {
				t.Errorf("%d-bit cell page %d senses = %d, want %d", bitsPerCell, j, got, want)
			}
		}
		if got := c.MaxSenses(); got != 1<<uint(bitsPerCell-1) {
			t.Errorf("%d-bit cell max senses = %d, want %d", bitsPerCell, got, 1<<uint(bitsPerCell-1))
		}
	}
}

func TestGrayIsGrayCode(t *testing.T) {
	for bitsPerCell := 1; bitsPerCell <= 5; bitsPerCell++ {
		c := NewGray(bitsPerCell)
		for s := 0; s+1 < c.States(); s++ {
			diff := 0
			for j := 0; j < bitsPerCell; j++ {
				if c.Value(s, PageType(j)) != c.Value(s+1, PageType(j)) {
					diff++
				}
			}
			if diff != 1 {
				t.Errorf("%d-bit: states %d and %d differ in %d bits, want 1", bitsPerCell, s, s+1, diff)
			}
		}
	}
}

func TestErasedStateIsAllOnes(t *testing.T) {
	for bitsPerCell := 1; bitsPerCell <= 5; bitsPerCell++ {
		c := NewGray(bitsPerCell)
		for j := 0; j < bitsPerCell; j++ {
			if c.Value(0, PageType(j)) != 1 {
				t.Errorf("%d-bit erased state bit %d = 0, want 1", bitsPerCell, j)
			}
		}
	}
}

// senseRead is the hardware sensing procedure for bit j on a cell in state
// s: it applies each read voltage of the bit and combines the on/off
// outcomes. A cell is "on" at level v when its state is at or below v;
// starting from the erased-state value, every read level below the cell's
// state toggles the bit once. The tests check the state maps against it.
func senseRead(c *Scheme, s int, j PageType) uint8 {
	on := 0
	for _, v := range c.readLevels[j] {
		if s <= v {
			on++
		}
	}
	v := c.values[0][j]
	if (len(c.readLevels[j])-on)%2 == 1 {
		v ^= 1
	}
	return v
}

func TestSenseReadMatchesTable(t *testing.T) {
	for bitsPerCell := 1; bitsPerCell <= 4; bitsPerCell++ {
		c := NewGray(bitsPerCell)
		for s := 0; s < c.States(); s++ {
			for j := 0; j < bitsPerCell; j++ {
				want := c.Value(s, PageType(j))
				if got := senseRead(c, s, PageType(j)); got != want {
					t.Errorf("%d-bit SenseRead(S%d, %v) = %d, want %d", bitsPerCell, s+1, PageType(j), got, want)
				}
			}
		}
	}
}

func TestVendor232TLC(t *testing.T) {
	c := Vendor232TLC()
	wantSenses := []int{2, 3, 2}
	for j, want := range wantSenses {
		if got := c.Senses(PageType(j)); got != want {
			t.Errorf("2-3-2 page %d senses = %d, want %d", j, got, want)
		}
	}
	for s := 0; s < c.States(); s++ {
		for j := 0; j < 3; j++ {
			if got, want := senseRead(c, s, PageType(j)), c.Value(s, PageType(j)); got != want {
				t.Errorf("2-3-2 SenseRead(S%d,%d) = %d, want %d", s+1, j, got, want)
			}
		}
	}
}

func TestNewCustomValidation(t *testing.T) {
	cases := []struct {
		name   string
		values [][]uint8
	}{
		{"empty", nil},
		{"not power of two", [][]uint8{{0}, {1}, {0}}},
		{"ragged", [][]uint8{{0, 0}, {0, 1}, {1}, {1, 1}}},
		{"non binary", [][]uint8{{0}, {2}}},
		{"duplicate tuple", [][]uint8{{0, 0}, {0, 1}, {0, 0}, {1, 1}}},
	}
	for _, tc := range cases {
		if _, err := NewCustom(tc.values); err == nil {
			t.Errorf("NewCustom(%s) should fail", tc.name)
		}
	}
}

func TestNewGrayPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGray(%d) should panic", n)
				}
			}()
			NewGray(n)
		}()
	}
}

func TestPageTypeString(t *testing.T) {
	names := map[PageType]string{0: "LSB", 1: "CSB", 2: "MSB", 3: "TSB", 7: "bit7"}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("PageType(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestSchemeString(t *testing.T) {
	s := NewGray(1).String()
	if s == "" {
		t.Error("String() should not be empty")
	}
}
