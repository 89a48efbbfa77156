package coding

import "fmt"

// WLCase is one of the eight wordline validity scenarios of Table I in the
// paper (TLC). Case numbers follow the table: cases 1-4 have a valid MSB and
// are IDA targets, cases 5-7 are plain relocations, case 8 needs nothing.
type WLCase int

// The eight Table I cases.
const (
	CaseInvalidWL     WLCase = 0 // not a Table I case (sentinel)
	Case1AllValid     WLCase = 1 // LSB valid, CSB valid, MSB valid
	Case2LSBInvalid   WLCase = 2 // LSB invalid, CSB valid, MSB valid
	Case3CSBInvalid   WLCase = 3 // LSB valid, CSB invalid, MSB valid
	Case4LowerInvalid WLCase = 4 // LSB+CSB invalid, MSB valid
	Case5MSBInvalid   WLCase = 5 // LSB valid, CSB valid, MSB invalid
	Case6OnlyCSBValid WLCase = 6 // CSB valid only
	Case7OnlyLSBValid WLCase = 7 // LSB valid only
	Case8AllInvalid   WLCase = 8 // nothing valid
)

// String names the case as in the paper's Table I.
func (c WLCase) String() string {
	if c >= 1 && c <= 8 {
		return fmt.Sprintf("case%d", int(c))
	}
	return "case?"
}

// ClassifyTLC maps a TLC wordline's validity mask to its Table I case.
func ClassifyTLC(mask ValidMask) WLCase {
	l, c, m := mask.Has(LSB), mask.Has(CSB), mask.Has(MSB)
	switch {
	case l && c && m:
		return Case1AllValid
	case !l && c && m:
		return Case2LSBInvalid
	case l && !c && m:
		return Case3CSBInvalid
	case !l && !c && m:
		return Case4LowerInvalid
	case l && c && !m:
		return Case5MSBInvalid
	case !l && c && !m:
		return Case6OnlyCSBValid
	case l && !c && !m:
		return Case7OnlyLSBValid
	default:
		return Case8AllInvalid
	}
}

// Plan is the per-wordline decision the modified data refresh makes
// (Section III-C): which valid pages to relocate to the new block, whether
// to apply the voltage adjustment, and which pages the reprogrammed wordline
// keeps.
type Plan struct {
	// Apply reports whether the IDA voltage adjustment is worthwhile for
	// this wordline (Table I cases 1-4 for TLC).
	Apply bool
	// Move lists the valid pages that must be relocated to the new block
	// before (or instead of) adjusting.
	Move []PageType
	// Keep is the mask of pages that stay in the wordline after the
	// adjustment; Merge(Keep) gives their post-adjustment sensing counts.
	// Zero when Apply is false.
	Keep ValidMask
}

// PlanWordline generalizes Table I to any bits-per-cell scheme: the
// adjustment is applied when the slowest (top) page is still valid, keeping
// the maximal all-valid suffix of pages that excludes at least the fastest
// page, and relocating every other valid page. For TLC this reproduces
// Table I exactly: cases 1-2 keep CSB+MSB, cases 3-4 keep MSB only, cases
// 5-7 relocate, case 8 does nothing. The returned plan shares precomputed
// state (Move); callers must treat it as read-only.
func (c *Scheme) PlanWordline(mask ValidMask) Plan {
	return c.plans[mask&MaskAll(c.bits)]
}

// computePlan builds the refresh plan for one mask (construction time
// only; hot-path callers go through the precomputed PlanWordline table).
func (c *Scheme) computePlan(mask ValidMask) Plan {
	var p Plan
	top := PageType(c.bits - 1)
	if c.bits == 1 || !mask.Has(top) {
		// Slowest page already invalid: adjusting cannot shorten any
		// remaining read below what relocation gives, so fall back to
		// the original refresh behaviour.
		for j := PageType(0); int(j) < c.bits; j++ {
			if mask.Has(j) {
				p.Move = append(p.Move, j)
			}
		}
		return p
	}
	// Find the start of the maximal all-valid suffix, clamped so the
	// fastest page is never kept (keeping it would pin all 2^bits states
	// and yield no merge).
	k := int(top)
	for k > 1 && mask.Has(PageType(k-1)) {
		k--
	}
	keep := ValidMask(0)
	for j := k; j <= int(top); j++ {
		keep = keep.With(PageType(j))
	}
	for j := PageType(0); int(j) < k; j++ {
		if mask.Has(j) {
			p.Move = append(p.Move, j)
		}
	}
	p.Apply = true
	p.Keep = keep
	return p
}
