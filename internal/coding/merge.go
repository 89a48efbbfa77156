package coding

import "fmt"

// ValidMask records which bits (pages) of a wordline still hold valid data.
// Bit j of the mask corresponds to PageType j.
type ValidMask uint32

// MaskAll returns the mask with the lowest n bits valid.
func MaskAll(n int) ValidMask { return ValidMask(1<<uint(n)) - 1 }

// Has reports whether page j is valid in the mask.
func (m ValidMask) Has(j PageType) bool { return m&(1<<uint(j)) != 0 }

// Without returns the mask with page j cleared.
func (m ValidMask) Without(j PageType) ValidMask { return m &^ (1 << uint(j)) }

// With returns the mask with page j set.
func (m ValidMask) With(j PageType) ValidMask { return m | (1 << uint(j)) }

// Merged is the result of applying the IDA voltage adjustment to a wordline
// whose valid pages are given by a mask: a mapping from every original state
// to its merged target state, the set of states reachable afterwards, and
// the reduced sensing counts of the remaining valid pages.
type Merged struct {
	scheme *Scheme
	mask   ValidMask
	// target[s] is the voltage state cell s is moved to. ISPP can only add
	// charge, so target[s] >= s always holds.
	target []int
	// reachable lists the states that remain in use after merging, in
	// ascending voltage order.
	reachable []int
	// senses[j] is the post-merge sensing count of bit j (0 for invalid
	// bits, which can no longer be read meaningfully).
	senses []int
}

// Merge returns the IDA voltage adjustment for the scheme under the given
// valid mask: states whose valid-bit projections coincide form an
// equivalence class, and every class collapses onto its highest-voltage
// member (the only member every other member can reach by adding charge).
// If the mask is empty or covers all bits, merging is still well defined: a
// full mask yields the identity transform, an empty mask collapses
// everything to the top state. Mask bits beyond the cell's bit count are
// ignored. The result is precomputed and shared; it must not be modified.
func (c *Scheme) Merge(mask ValidMask) *Merged {
	return c.merges[mask&MaskAll(c.bits)]
}

// computeMerge builds the merge result for one mask (construction time
// only; hot-path callers go through the precomputed Merge table).
func (c *Scheme) computeMerge(mask ValidMask) *Merged {
	m := &Merged{scheme: c, mask: mask}
	m.target = make([]int, c.states)

	// Group states by their projection onto the valid bits and find the
	// highest-voltage member of each class.
	top := make(map[uint32]int)
	for s := 0; s < c.states; s++ {
		key := c.projection(s, mask)
		if t, ok := top[key]; !ok || s > t {
			top[key] = s
		}
	}
	reach := make(map[int]bool, len(top))
	for s := 0; s < c.states; s++ {
		t := top[c.projection(s, mask)]
		m.target[s] = t
		reach[t] = true
	}
	for s := 0; s < c.states; s++ {
		if reach[s] {
			m.reachable = append(m.reachable, s)
		}
	}

	// Post-merge sensing counts: one read voltage at every boundary
	// between consecutive reachable states where the bit value changes.
	m.senses = make([]int, c.bits)
	for j := 0; j < c.bits; j++ {
		if !mask.Has(PageType(j)) {
			continue
		}
		for i := 0; i+1 < len(m.reachable); i++ {
			a, b := m.reachable[i], m.reachable[i+1]
			if c.values[a][j] != c.values[b][j] {
				m.senses[j]++
			}
		}
	}
	return m
}

// projection packs the values of the valid bits of state s into a key.
func (c *Scheme) projection(s int, mask ValidMask) uint32 {
	var key uint32 = 1 // sentinel so differing masks cannot alias
	for j := 0; j < c.bits; j++ {
		if mask.Has(PageType(j)) {
			key = key<<1 | uint32(c.values[s][j])
		}
	}
	return key
}

// Target returns the merged state a cell in state s is moved to.
func (m *Merged) Target(s int) int { return m.target[s] }

// Reachable returns the states still in use after merging, ascending.
// The returned slice must not be modified.
func (m *Merged) Reachable() []int { return m.reachable }

// Senses returns the post-merge sensing count for page j. It returns 0 for
// pages that are invalid in the mask.
func (m *Merged) Senses(j PageType) int { return m.senses[j] }

// MoveDistance returns the total and maximum number of states cells must be
// moved up, over all source states. The maximum bounds the ISPP voltage
// range the adjustment has to sweep, which is what makes the adjustment
// latency about half of an MSB page write (Section III-B).
func (m *Merged) MoveDistance() (total, max int) {
	for s := 0; s < m.scheme.states; s++ {
		d := m.target[s] - s
		total += d
		if d > max {
			max = d
		}
	}
	return total, max
}

// MeanMove returns the expected per-cell voltage-level distance the
// adjustment moves a cell, assuming the states are uniformly occupied. It
// is the power/wear proxy of one voltage adjustment, in the same units as
// CellCost.MeanLevel.
func (m *Merged) MeanMove() float64 {
	total, _ := m.MoveDistance()
	return float64(total) / float64(m.scheme.states)
}

// String summarizes the merge result.
func (m *Merged) String() string {
	return fmt.Sprintf("merged(mask=%b, reachable=%d)", m.mask, len(m.reachable))
}
