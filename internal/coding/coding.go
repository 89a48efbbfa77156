// Package coding models the bit-to-voltage-state coding of multi-level NAND
// flash cells and the Invalid Data-Aware (IDA) transformation from the paper
// "Invalid Data-Aware Coding to Enhance the Read Performance of High-Density
// Flash Memories" (MICRO 2018).
//
// A cell with b bits has 2^b threshold-voltage states, ordered from the
// erased state (index 0, lowest voltage) upward. A coding scheme assigns a
// b-bit tuple to every state. Reading one logical page (one bit position of
// every cell on a wordline) requires sensing the wordline once per read
// voltage of that bit; a read voltage sits at every boundary between two
// adjacent states whose values for that bit differ. The number of sensings
// therefore equals the number of transitions of the bit along the state
// axis, which is what makes LSB/CSB/MSB read latencies asymmetric.
//
// The IDA transformation merges states that have become indistinguishable
// because some bits were invalidated, moving cells only toward higher
// voltages (the only direction ISPP reprogramming can go), which shrinks the
// set of reachable states and with it the sensing counts of the remaining
// valid bits.
package coding

import (
	"fmt"
	"strings"
	"sync"
)

// PageType identifies a logical page (bit position) within a wordline.
// Page 0 is the fastest page of the conventional Gray coding (LSB for TLC);
// page b-1 is the slowest (MSB for TLC).
type PageType int

// Conventional TLC page names. They are plain PageType values, so they can
// index into per-bit tables directly.
const (
	LSB PageType = 0
	CSB PageType = 1
	MSB PageType = 2
)

// String returns the conventional name of the page type for cells of up to
// four bits, falling back to a numeric form.
func (p PageType) String() string {
	switch p {
	case 0:
		return "LSB"
	case 1:
		return "CSB"
	case 2:
		return "MSB"
	case 3:
		return "TSB"
	default:
		return fmt.Sprintf("bit%d", int(p))
	}
}

// Scheme is an immutable cell coding: an assignment of bit tuples to the
// ordered voltage states of a b-bit cell, the sensing counts and IDA
// merge/refresh rules that map implies, and the per-program power/wear cost
// of the data it stores. Every registered code is a Scheme: ida and randio
// differ in their state maps, ilwc is the Gray map with a biased-data cost.
// A Scheme is safe for concurrent use; every slice or pointer it returns is
// shared precomputed state that callers must not modify.
type Scheme struct {
	name   string
	bits   int
	states int
	// values[s][j] is the value (0 or 1) of bit j when the cell is in
	// voltage state s. State 0 is the erased (lowest-voltage) state.
	values [][]uint8
	// readLevels[j] lists the read-voltage positions of bit j in
	// ascending order. Level v is the boundary between states v and v+1
	// (0 <= v < states-1).
	readLevels [][]int
	// cost is the per-program power/wear proxy (uniform over states for a
	// plain bijective map; constructors may override it).
	cost CellCost
	// merges[mask] and plans[mask] are the precomputed IDA merge results
	// and Table I refresh plans for every validity mask, built once at
	// construction so Merge and PlanWordline are allocation-free lookups
	// on the simulation hot path.
	merges []*Merged
	plans  []Plan
}

// NewGray builds the standard binary-reflected Gray coding used by the paper
// (Figure 2 for TLC, Figure 6 for QLC): bit j has exactly 2^j transitions, so
// reading page j needs 2^j sensings. bits must be between 1 and 8.
func NewGray(bits int) *Scheme {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("coding: NewGray bits %d out of range [1,8]", bits))
	}
	states := 1 << bits
	values := make([][]uint8, states)
	for s := 0; s < states; s++ {
		values[s] = make([]uint8, bits)
		for j := 0; j < bits; j++ {
			// Bit j repeats with period P = 2^(bits-j), phase-shifted
			// by half a period so that the erased state is all ones.
			p := 1 << (bits - j)
			if ((s+p/2)/p)%2 == 0 {
				values[s][j] = 1
			}
		}
	}
	sch, err := NewCustom(values)
	if err != nil {
		panic("coding: internal error building Gray scheme: " + err.Error())
	}
	sch.name = CodeIDA
	return sch
}

// NewCustom builds a scheme from an explicit state-to-bits table, enabling
// vendor-specific codings such as the 2-3-2 TLC coding the paper mentions.
// values[s][j] is the value of bit j in state s; every row must have the same
// length, the number of states must be exactly 2^bits, and every state must
// carry a distinct bit tuple.
func NewCustom(values [][]uint8) (*Scheme, error) {
	states := len(values)
	if states == 0 {
		return nil, fmt.Errorf("coding: empty state table")
	}
	bits := len(values[0])
	if bits == 0 {
		return nil, fmt.Errorf("coding: zero bits per cell")
	}
	if states != 1<<bits {
		return nil, fmt.Errorf("coding: %d states does not match 2^%d bits", states, bits)
	}
	seen := make(map[uint32]bool, states)
	for s, row := range values {
		if len(row) != bits {
			return nil, fmt.Errorf("coding: state %d has %d bits, want %d", s, len(row), bits)
		}
		var key uint32
		for j, v := range row {
			if v > 1 {
				return nil, fmt.Errorf("coding: state %d bit %d has non-binary value %d", s, j, v)
			}
			key |= uint32(v) << uint(j)
		}
		if seen[key] {
			return nil, fmt.Errorf("coding: duplicate bit tuple %0*b", bits, key)
		}
		seen[key] = true
	}
	sch := &Scheme{bits: bits, states: states}
	sch.values = make([][]uint8, states)
	for s := range values {
		sch.values[s] = append([]uint8(nil), values[s]...)
	}
	sch.readLevels = make([][]int, bits)
	for j := 0; j < bits; j++ {
		for v := 0; v < states-1; v++ {
			if values[v][j] != values[v+1][j] {
				sch.readLevels[j] = append(sch.readLevels[j], v)
			}
		}
		if len(sch.readLevels[j]) == 0 {
			return nil, fmt.Errorf("coding: bit %d is constant across all states", j)
		}
	}
	sch.name = "custom"
	sch.cost = uniformCost(states)
	// Precompute the merge result and refresh plan of every validity mask
	// (there are only 2^bits of them), so the hot-path Merge and
	// PlanWordline calls are allocation-free table lookups.
	sch.merges = make([]*Merged, states)
	sch.plans = make([]Plan, states)
	for m := ValidMask(0); int(m) < states; m++ {
		sch.merges[m] = sch.computeMerge(m)
		sch.plans[m] = sch.computePlan(m)
	}
	return sch, nil
}

// Vendor232TLC returns the alternative vendor TLC coding mentioned in
// Section III-B of the paper, which needs 2, 3, and 2 sensings for the LSB,
// CSB, and MSB pages respectively (a flatter but still asymmetric layout).
// Like New, it returns one shared scheme, built on first use.
func Vendor232TLC() *Scheme { return vendor232() }

var vendor232 = sync.OnceValue(func() *Scheme {
	// Built as a Gray sequence (adjacent states differ in one bit) whose
	// per-bit transition counts are 2, 3, and 2.
	values := [][]uint8{
		{1, 1, 1},
		{0, 1, 1},
		{0, 0, 1},
		{0, 0, 0},
		{0, 1, 0},
		{1, 1, 0},
		{1, 0, 0},
		{1, 0, 1},
	}
	sch, err := NewCustom(values)
	if err != nil {
		panic("coding: internal error building 2-3-2 scheme: " + err.Error())
	}
	sch.name = CodeIDA
	return sch
})

// Name returns the registry name of the code family this scheme belongs to
// ("ida" for the Gray and vendor maps, "randio" for the balanced map,
// "ilwc" for the biased-data Gray map, "custom" for NewCustom schemes).
func (c *Scheme) Name() string { return c.name }

// ProgramCost returns the per-program power/wear proxy of the scheme.
func (c *Scheme) ProgramCost() CellCost { return c.cost }

// Bits returns the number of bits stored per cell.
func (c *Scheme) Bits() int { return c.bits }

// States returns the number of voltage states (2^Bits).
func (c *Scheme) States() int { return c.states }

// Value returns the value of bit j when the cell is in voltage state s.
func (c *Scheme) Value(s int, j PageType) uint8 {
	return c.values[s][j]
}

// Encode returns the voltage state that stores the given bit tuple.
// The tuple length must equal Bits.
func (c *Scheme) Encode(bits []uint8) (int, error) {
	if len(bits) != c.bits {
		return 0, fmt.Errorf("coding: encode got %d bits, want %d", len(bits), c.bits)
	}
outer:
	for s := 0; s < c.states; s++ {
		for j := 0; j < c.bits; j++ {
			if c.values[s][j] != bits[j] {
				continue outer
			}
		}
		return s, nil
	}
	return 0, fmt.Errorf("coding: no state encodes %v", bits)
}

// Decode returns the full bit tuple stored in voltage state s.
func (c *Scheme) Decode(s int) []uint8 {
	return append([]uint8(nil), c.values[s]...)
}

// ReadLevels returns the read-voltage positions used to read bit j under the
// conventional coding. Level v is the boundary between states v and v+1.
// The returned slice must not be modified.
func (c *Scheme) ReadLevels(j PageType) []int {
	return c.readLevels[j]
}

// Senses returns the number of wordline sensings needed to read page j under
// the conventional coding (the number of read voltages of that bit).
func (c *Scheme) Senses(j PageType) int {
	return len(c.readLevels[j])
}

// MaxSenses returns the largest sensing count across all page types, i.e.
// the cost of the slowest page.
func (c *Scheme) MaxSenses() int {
	max := 0
	for j := 0; j < c.bits; j++ {
		if n := len(c.readLevels[j]); n > max {
			max = n
		}
	}
	return max
}

// SenseRead simulates the sensing procedure for bit j on a cell in state s:
// it applies each read voltage of the bit and combines the on/off outcomes.
// A cell is "on" at level v when its state is at or below v. The bit value is
// recovered as the parity of the number of read levels at or above the
// cell's position, matched against the erased-state value. This is exactly
// the hardware procedure the paper describes for LSB/CSB/MSB reads.
func (c *Scheme) SenseRead(s int, j PageType) uint8 {
	on := 0
	for _, v := range c.readLevels[j] {
		if s <= v {
			on++
		}
	}
	// Starting from the erased-state value, every read level below the
	// cell's state toggles the bit once.
	toggles := len(c.readLevels[j]) - on
	v := c.values[0][j]
	if toggles%2 == 1 {
		v ^= 1
	}
	return v
}

// String renders the scheme as a compact table, states in voltage order.
func (c *Scheme) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coding(%d bits):", c.bits)
	for s := 0; s < c.states; s++ {
		b.WriteString(" S")
		fmt.Fprintf(&b, "%d=", s+1)
		for j := c.bits - 1; j >= 0; j-- {
			fmt.Fprintf(&b, "%d", c.values[s][j])
		}
	}
	return b.String()
}
