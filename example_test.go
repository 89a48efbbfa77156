package idaflash_test

import (
	"fmt"

	"idaflash"
)

// ExampleScheme_Merge reproduces the paper's Figure 5: invalidating the LSB
// of a TLC wordline merges the eight voltage states into four, cutting the
// CSB read to one sensing and the MSB read to two.
func ExampleScheme_Merge() {
	tlc := idaflash.NewGrayCoding(3)
	m := tlc.Merge(idaflash.MaskAll(3).Without(idaflash.LSB))
	fmt.Println("reachable states:", len(m.Reachable()))
	fmt.Println("CSB sensings:", m.Senses(idaflash.CSB))
	fmt.Println("MSB sensings:", m.Senses(idaflash.MSB))
	// Output:
	// reachable states: 4
	// CSB sensings: 1
	// MSB sensings: 2
}

// ExampleScheme_PlanWordline shows the Table I refresh decision for a
// wordline whose LSB and CSB were invalidated (case 4): adjust the voltage
// and keep only the MSB, now readable with a single sensing.
func ExampleScheme_PlanWordline() {
	tlc := idaflash.NewGrayCoding(3)
	plan := tlc.PlanWordline(idaflash.ValidMask(0).With(idaflash.MSB))
	fmt.Println("apply:", plan.Apply)
	fmt.Println("moves:", len(plan.Move))
	fmt.Println("MSB sensings after:", tlc.Merge(plan.Keep).Senses(idaflash.MSB))
	// Output:
	// apply: true
	// moves: 0
	// MSB sensings after: 1
}

// ExampleNewGrayCoding shows the QLC generalization of Figure 6: a 4-bit
// cell's pages need 1/2/4/8 sensings under the conventional Gray coding.
func ExampleNewGrayCoding() {
	qlc := idaflash.NewGrayCoding(4)
	for j := idaflash.PageType(0); j < 4; j++ {
		fmt.Printf("bit%d: %d\n", int(j)+1, qlc.Senses(j))
	}
	// Output:
	// bit1: 1
	// bit2: 2
	// bit3: 4
	// bit4: 8
}

// ExamplePaperTiming shows the Table II read-latency model recovering the
// Micron TLC datapoints from the sensing counts.
func ExamplePaperTiming() {
	t := idaflash.PaperTiming()
	fmt.Println("LSB:", t.ReadLatency(1))
	fmt.Println("CSB:", t.ReadLatency(2))
	fmt.Println("MSB:", t.ReadLatency(4))
	// Output:
	// LSB: 50µs
	// CSB: 100µs
	// MSB: 150µs
}

// ExampleProfileByName looks up one of the paper's Table III workloads.
func ExampleProfileByName() {
	p, err := idaflash.ProfileByName("stg_1", 10000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %.2f%% reads, %.1f KB mean read\n", p.Name, p.ReadRatio*100, p.MeanReadKB)
	// Output:
	// stg_1: 63.74% reads, 59.7 KB mean read
}
