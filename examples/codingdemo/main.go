// Codingdemo walks the cell-coding model underlying the paper: the
// conventional TLC coding of Figure 2, the IDA state merging of Figure 5,
// the Table I wordline planning, and the QLC generalization of Figure 6 —
// all computed from the library's coding engine rather than hard-coded.
//
//	go run ./examples/codingdemo
package main

import (
	"fmt"

	"idaflash"
)

func main() {
	tlc := idaflash.NewGrayCoding(3)

	fmt.Println("Conventional TLC coding (Figure 2):")
	fmt.Println(" state  MSB CSB LSB")
	for s := 0; s < tlc.States(); s++ {
		fmt.Printf("  S%d     %d   %d   %d\n", s+1,
			tlc.Value(s, idaflash.MSB), tlc.Value(s, idaflash.CSB), tlc.Value(s, idaflash.LSB))
	}
	fmt.Printf("sensings per read: LSB=%d CSB=%d MSB=%d\n\n",
		tlc.Senses(idaflash.LSB), tlc.Senses(idaflash.CSB), tlc.Senses(idaflash.MSB))

	fmt.Println("IDA merging with the LSB invalidated (Figure 5):")
	m := tlc.Merge(idaflash.MaskAll(3).Without(idaflash.LSB))
	for s := 0; s < tlc.States(); s++ {
		if m.Target(s) != s {
			fmt.Printf("  S%d -> S%d (ISPP adds charge)\n", s+1, m.Target(s)+1)
		}
	}
	fmt.Printf("sensings after merge: CSB=%d MSB=%d\n\n", m.Senses(idaflash.CSB), m.Senses(idaflash.MSB))

	fmt.Println("Table I wordline planning:")
	scenarios := []struct {
		name string
		mask idaflash.ValidMask
	}{
		{"case 1 (all valid)", idaflash.MaskAll(3)},
		{"case 2 (LSB invalid)", idaflash.MaskAll(3).Without(idaflash.LSB)},
		{"case 3 (CSB invalid)", idaflash.MaskAll(3).Without(idaflash.CSB)},
		{"case 4 (LSB+CSB invalid)", idaflash.ValidMask(0).With(idaflash.MSB)},
		{"case 5 (MSB invalid)", idaflash.MaskAll(3).Without(idaflash.MSB)},
		{"case 8 (all invalid)", 0},
	}
	for _, sc := range scenarios {
		p := tlc.PlanWordline(sc.mask)
		switch {
		case p.Apply:
			fmt.Printf("  %-26s adjust; move %v; kept sensings", sc.name, p.Move)
			km := tlc.Merge(p.Keep)
			for t := idaflash.LSB; t <= idaflash.MSB; t++ {
				if p.Keep.Has(t) {
					fmt.Printf(" %v=%d", t, km.Senses(t))
				}
			}
			fmt.Println()
		case len(p.Move) > 0:
			fmt.Printf("  %-26s relocate %v (no adjustment)\n", sc.name, p.Move)
		default:
			fmt.Printf("  %-26s nothing to do\n", sc.name)
		}
	}

	fmt.Println("\nQLC generalization (Figure 6): two lower bits invalid")
	qlc := idaflash.NewGrayCoding(4)
	qm := qlc.Merge(idaflash.ValidMask(0).With(2).With(3))
	fmt.Printf("  bit3: %d -> %d sensings\n", qlc.Senses(2), qm.Senses(2))
	fmt.Printf("  bit4: %d -> %d sensings\n", qlc.Senses(3), qm.Senses(3))
	fmt.Printf("  reachable states: %d of %d\n", len(qm.Reachable()), qlc.States())

	fmt.Println("\nVendor 2-3-2 TLC coding (Section III-B):")
	v := idaflash.Vendor232TLC()
	fmt.Printf("  sensings: LSB=%d CSB=%d MSB=%d\n",
		v.Senses(idaflash.LSB), v.Senses(idaflash.CSB), v.Senses(idaflash.MSB))
	vm := v.Merge(idaflash.ValidMask(0).With(idaflash.MSB))
	fmt.Printf("  IDA with only MSB valid: MSB=%d sensing(s)\n", vm.Senses(idaflash.MSB))

	fmt.Println("\nCoding lab: every registered scheme, TLC geometry:")
	fmt.Println(" scheme  senses(LSB/CSB/MSB)  worst  mean level  programmed")
	for _, name := range idaflash.CodingNames() {
		c, err := idaflash.NewCoding(name, 3)
		if err != nil {
			panic(err)
		}
		cost := c.ProgramCost()
		fmt.Printf("  %-7s %d/%d/%d                %d      %.3f       %.1f%%\n",
			c.Name(),
			c.Senses(idaflash.LSB), c.Senses(idaflash.CSB), c.Senses(idaflash.MSB),
			c.MaxSenses(), cost.MeanLevel, 100*cost.ProgrammedFrac)
	}
	fmt.Println("randio flattens the worst page; ilwc keeps Gray senses but")
	fmt.Println("programs fewer, lower voltage cells (the power/wear proxies).")
}
