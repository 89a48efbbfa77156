package flash

import (
	"fmt"

	"idaflash/internal/coding"
)

// PageRef identifies a logical page inside a block by wordline and page
// type, the two coordinates the coding model cares about.
type PageRef struct {
	WL   int
	Type coding.PageType
}

// ProgramOrder is the sequence in which a block's pages are programmed:
// entry i is the page written at program step i. Real multi-level devices
// never fill a wordline's pages back to back: they use a staircase
// ("shadow") schedule that programs the fast page of wordline n+k before
// the slow page of wordline n, which limits program interference. The
// schedule matters to this reproduction because it determines how
// temporally-adjacent host writes spread across page types, and therefore
// how often a wordline ends up with an invalid LSB but valid MSB (the
// paper's target scenario).
type ProgramOrder []PageRef

// NewProgramOrder builds the shadow schedule for a block of the given
// shape: a diagonal sweep over key = wl + type, ties broken by the slower
// page first so every wordline finishes as early as possible once its
// diagonal arrives. For TLC: L0; C0, L1; M0, C1, L2; M1, C2, L3; ...
func NewProgramOrder(wordlines, bits int) ProgramOrder {
	if wordlines <= 0 || bits <= 0 {
		panic(fmt.Sprintf("flash: NewProgramOrder(%d, %d)", wordlines, bits))
	}
	po := make(ProgramOrder, 0, wordlines*bits)
	maxKey := (wordlines - 1) + (bits - 1)
	for key := 0; key <= maxKey; key++ {
		for b := bits - 1; b >= 0; b-- {
			wl := key - b
			if wl >= 0 && wl < wordlines {
				po = append(po, PageRef{WL: wl, Type: coding.PageType(b)})
			}
		}
	}
	return po
}
