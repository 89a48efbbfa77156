package coding

// ilwcPOne is the probability that a stored bit is 1 after inverted
// limited-weight coding over 16-bit chunks (arXiv 1907.02622): each chunk is
// inverted when it carries more zeros than ones, so a uniform chunk stores
// max(k, 16-k) ones where k ~ Binomial(16, 1/2). E[max] = 8 + 8*C(16,8)/2^16
// ≈ 9.571 ones out of 16, i.e. p ≈ 0.598.
const ilwcPOne = 0.598

// NewILWC builds inverted limited-weight coding for the given bits-per-cell:
// the Gray state map (latency is identical to the ida code) fed bit-biased
// data. With the erased state storing all ones, biasing stored bits toward 1
// shifts the programmed state distribution toward low voltages, which
// ProgramCost exposes as lower MeanLevel and ProgrammedFrac.
func NewILWC(bits int) *Scheme {
	g := NewGray(bits)
	g.name = CodeILWC
	g.cost = biasedCost(g, ilwcPOne)
	return g
}
