package coding

// CellCost is a code's per-program power/wear proxy, computed from the
// distribution of voltage states the code's codewords land on. Both fields
// are per-cell expectations over one full wordline program; a single page
// program accounts for 1/Bits of them.
type CellCost struct {
	// MeanLevel is the expected voltage-state index a cell is programmed
	// to (0 = erased, States-1 = highest). ISPP charge transferred — and
	// with it program power and cell stress — grows with the target
	// level, so this is the power/wear proxy the coding-lab experiments
	// compare. A uniform bijective code lands on (States-1)/2.
	MeanLevel float64
	// ProgrammedFrac is the expected fraction of cells moved off the
	// erased state at all. Inverted limited-weight coding exists to
	// shrink exactly this number.
	ProgrammedFrac float64
}

// uniformCost is the cost of a code whose codewords hit every state with
// equal probability — any bijective state map under uniform host data.
func uniformCost(states int) CellCost {
	return CellCost{
		MeanLevel:      float64(states-1) / 2,
		ProgrammedFrac: 1 - 1/float64(states),
	}
}

// biasedCost computes the cost of a state map whose stored bits are not
// uniform: each bit is 1 independently with probability pOne. Limited-weight
// codes shape exactly this distribution — inversion guarantees codewords
// carry more ones than zeros, and (with the erased state storing all ones)
// more ones means lower voltage states.
func biasedCost(c *Scheme, pOne float64) CellCost {
	var cost CellCost
	for s := 0; s < c.states; s++ {
		p := 1.0
		for j := 0; j < c.bits; j++ {
			if c.values[s][j] == 1 {
				p *= pOne
			} else {
				p *= 1 - pOne
			}
		}
		cost.MeanLevel += float64(s) * p
		if s != 0 {
			cost.ProgrammedFrac += p
		}
	}
	return cost
}
