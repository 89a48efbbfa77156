package coding

import (
	"fmt"
	"sync"
	"testing"
)

// labCodes returns every registered code at every bit width it supports,
// so the property tests below cover the whole coding lab.
func labCodes(t *testing.T) []*Scheme {
	t.Helper()
	var codes []*Scheme
	for _, name := range Names() {
		for bits := 1; bits <= 4; bits++ {
			c, err := New(name, bits)
			if err != nil {
				t.Fatalf("New(%q, %d): %v", name, bits, err)
			}
			codes = append(codes, c)
		}
	}
	return codes
}

// TestRegistry checks the registry's surface: the three built-in codes are
// present, lookups are by exact name, and the default resolves to ida.
func TestRegistry(t *testing.T) {
	want := []string{CodeIDA, CodeILWC, CodeRandIO}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := New("gray", 3); err == nil {
		t.Error("New with unknown name succeeded")
	}
	if _, err := New(CodeIDA, 0); err == nil {
		t.Error("New with 0 bits succeeded")
	}
	if _, err := New(CodeRandIO, 5); err == nil {
		t.Error("randio with 5 bits succeeded; it is capped at QLC")
	}
	if d := Default(3); d.Name() != CodeIDA {
		t.Errorf("Default(3).Name() = %q, want %q", d.Name(), CodeIDA)
	}
	for _, c := range labCodes(t) {
		if c.Name() == "" {
			t.Errorf("%v has empty Name()", c)
		}
	}
}

// TestLabStateMapBijective checks that every code's state map is a bijection
// between the 2^b voltage states and the 2^b bit tuples, and that the erased
// state stores all ones (the convention the whole IDA machinery relies on:
// invalid pages can be "reprogrammed" only by adding charge).
func TestLabStateMapBijective(t *testing.T) {
	for _, c := range labCodes(t) {
		name := fmt.Sprintf("%s/b%d", c.Name(), c.Bits())
		if c.States() != 1<<c.Bits() {
			t.Errorf("%s: States() = %d, want %d", name, c.States(), 1<<c.Bits())
		}
		seen := make(map[uint32]int)
		for s := 0; s < c.States(); s++ {
			var key uint32
			for j := 0; j < c.Bits(); j++ {
				v := c.Value(s, PageType(j))
				if v > 1 {
					t.Fatalf("%s: state %d bit %d has non-binary value %d", name, s, j, v)
				}
				key |= uint32(v) << uint(j)
			}
			if prev, dup := seen[key]; dup {
				t.Errorf("%s: states %d and %d store the same tuple %0*b", name, prev, s, c.Bits(), key)
			}
			seen[key] = s
		}
		for j := 0; j < c.Bits(); j++ {
			if c.Value(0, PageType(j)) != 1 {
				t.Errorf("%s: erased state stores bit %d = 0, want all ones", name, j)
			}
		}
	}
}

// TestLabSensesMatchTransitions recomputes each page's sensing count from
// the raw state map — the number of value changes of that bit along the
// voltage axis — and checks Senses, ReadLevels, and MaxSenses agree with it
// for every code.
func TestLabSensesMatchTransitions(t *testing.T) {
	for _, c := range labCodes(t) {
		name := fmt.Sprintf("%s/b%d", c.Name(), c.Bits())
		max := 0
		for j := 0; j < c.Bits(); j++ {
			p := PageType(j)
			transitions := 0
			for s := 0; s+1 < c.States(); s++ {
				if c.Value(s, p) != c.Value(s+1, p) {
					transitions++
				}
			}
			if got := c.Senses(p); got != transitions {
				t.Errorf("%s: Senses(%v) = %d, state map has %d transitions", name, p, got, transitions)
			}
			if got := len(c.ReadLevels(p)); got != transitions {
				t.Errorf("%s: len(ReadLevels(%v)) = %d, want %d", name, p, got, transitions)
			}
			if transitions > max {
				max = transitions
			}
		}
		if got := c.MaxSenses(); got != max {
			t.Errorf("%s: MaxSenses() = %d, want %d", name, got, max)
		}
	}
}

// TestLabRandIOBalanced checks the defining property of the random-I/O code:
// per-bit transition counts differ by at most one, and the worst page is
// strictly cheaper than the Gray MSB whenever balancing can help (b >= 3).
func TestLabRandIOBalanced(t *testing.T) {
	for bits := 1; bits <= 4; bits++ {
		c := NewRandIO(bits)
		min, max := c.States(), 0
		for j := 0; j < bits; j++ {
			n := c.Senses(PageType(j))
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("b=%d: randio senses spread %d..%d, want within 1", bits, min, max)
		}
		if gray := NewGray(bits).MaxSenses(); bits >= 3 && max >= gray {
			t.Errorf("b=%d: randio worst page %d not cheaper than Gray's %d", bits, max, gray)
		}
	}
}

// TestLabMergeISPPLegal checks the physical legality of every merge of every
// code: targets only move cells toward higher voltages (ISPP can only add
// charge), merging is idempotent, targets are reachable, and cells that
// agree on all valid bits share a target.
func TestLabMergeISPPLegal(t *testing.T) {
	for _, c := range labCodes(t) {
		name := fmt.Sprintf("%s/b%d", c.Name(), c.Bits())
		for mask := ValidMask(0); int(mask) < c.States(); mask++ {
			m := c.Merge(mask)
			reach := make(map[int]bool)
			for _, s := range m.Reachable() {
				reach[s] = true
			}
			for s := 0; s < c.States(); s++ {
				tgt := m.Target(s)
				if tgt < s {
					t.Fatalf("%s mask %b: target(%d) = %d moves charge down", name, mask, s, tgt)
				}
				if !reach[tgt] {
					t.Fatalf("%s mask %b: target(%d) = %d not in Reachable()", name, mask, s, tgt)
				}
				if m.Target(tgt) != tgt {
					t.Fatalf("%s mask %b: merge not idempotent at state %d", name, mask, s)
				}
				for r := s + 1; r < c.States(); r++ {
					same := true
					for j := 0; j < c.Bits(); j++ {
						if mask.Has(PageType(j)) && c.Value(s, PageType(j)) != c.Value(r, PageType(j)) {
							same = false
							break
						}
					}
					if same != (m.Target(r) == tgt) {
						t.Fatalf("%s mask %b: states %d,%d agree-on-valid=%v but targets %d,%d",
							name, mask, s, r, same, tgt, m.Target(r))
					}
				}
			}
		}
	}
}

// TestLabPlansConsistent checks every code's refresh plans: kept pages form
// a subset of the mask (plus nothing), and moved pages are exactly the valid
// pages not kept.
func TestLabPlansConsistent(t *testing.T) {
	for _, c := range labCodes(t) {
		name := fmt.Sprintf("%s/b%d", c.Name(), c.Bits())
		for mask := ValidMask(0); int(mask) < c.States(); mask++ {
			p := c.PlanWordline(mask)
			if !p.Apply {
				if p.Keep != 0 {
					t.Fatalf("%s mask %b: non-applied plan keeps pages", name, mask)
				}
				if len(p.Move) != mask.Count() {
					t.Fatalf("%s mask %b: plan moves %d pages, mask has %d valid", name, mask, len(p.Move), mask.Count())
				}
				continue
			}
			moved := ValidMask(0)
			for _, j := range p.Move {
				moved = moved.With(j)
			}
			if moved&p.Keep != 0 {
				t.Fatalf("%s mask %b: pages both moved and kept", name, mask)
			}
			if want := mask &^ p.Keep; moved != want {
				t.Fatalf("%s mask %b: moved %b, want %b", name, mask, moved, want)
			}
		}
	}
}

// TestLabProgramCost checks the cost hooks: bijective codes under uniform
// data sit exactly at the uniform expectation, and the inverted
// limited-weight code strictly undercuts it on both proxies while keeping
// the Gray latency profile.
func TestLabProgramCost(t *testing.T) {
	for _, c := range labCodes(t) {
		name := fmt.Sprintf("%s/b%d", c.Name(), c.Bits())
		cost := c.ProgramCost()
		if cost.MeanLevel <= 0 && c.Bits() > 0 {
			t.Errorf("%s: MeanLevel = %v, want > 0", name, cost.MeanLevel)
		}
		if cost.ProgrammedFrac <= 0 || cost.ProgrammedFrac >= 1 {
			t.Errorf("%s: ProgrammedFrac = %v, want in (0,1)", name, cost.ProgrammedFrac)
		}
		uniform := uniformCost(c.States())
		switch c.Name() {
		case CodeIDA, CodeRandIO:
			if cost != uniform {
				t.Errorf("%s: cost %+v, want uniform %+v", name, cost, uniform)
			}
		case CodeILWC:
			if cost.MeanLevel >= uniform.MeanLevel {
				t.Errorf("%s: MeanLevel %v not below uniform %v", name, cost.MeanLevel, uniform.MeanLevel)
			}
			if cost.ProgrammedFrac >= uniform.ProgrammedFrac {
				t.Errorf("%s: ProgrammedFrac %v not below uniform %v", name, cost.ProgrammedFrac, uniform.ProgrammedFrac)
			}
		}
	}
	// ILWC keeps the Gray latency profile: same senses per page.
	for bits := 1; bits <= 4; bits++ {
		gray, ilwc := NewGray(bits), NewILWC(bits)
		for j := 0; j < bits; j++ {
			if gray.Senses(PageType(j)) != ilwc.Senses(PageType(j)) {
				t.Errorf("b=%d: ilwc Senses(%d) differs from Gray", bits, j)
			}
		}
	}
}

// TestLabMergeAllocationFree verifies the hot-path contract of every
// registered Scheme directly: Merge and PlanWordline perform zero
// allocations.
func TestLabMergeAllocationFree(t *testing.T) {
	for _, c := range labCodes(t) {
		c := c
		allocs := testing.AllocsPerRun(100, func() {
			for mask := ValidMask(0); int(mask) < c.States(); mask++ {
				if c.Merge(mask) == nil {
					t.Fatal("nil merge")
				}
				if p := c.PlanWordline(mask); p.Apply && p.Keep == 0 {
					t.Fatal("applied plan keeps nothing")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s/b%d: Merge+PlanWordline allocate %v per run, want 0", c.Name(), c.Bits(), allocs)
		}
	}
}

// TestNewSharesOneScheme checks that New hands out one scheme per (name,
// bits), built once even when many goroutines ask first at the same time,
// while NewCustom keeps building fresh schemes.
func TestNewSharesOneScheme(t *testing.T) {
	sharedMu.Lock()
	saved := shared
	shared = map[schemeKey]func() (*Scheme, error){}
	sharedMu.Unlock()
	t.Cleanup(func() {
		sharedMu.Lock()
		shared = saved
		sharedMu.Unlock()
	})

	type key struct {
		name string
		bits int
	}
	var keys []key
	for _, name := range Names() {
		for bits := 1; bits <= 5; bits++ {
			keys = append(keys, key{name, bits})
		}
	}
	const callers = 8
	got := make([][]*Scheme, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, k := range keys {
				s, err := New(k.name, k.bits)
				if (err != nil) != (k.name == CodeRandIO && k.bits > 4) {
					t.Errorf("New(%q, %d): unexpected error %v", k.name, k.bits, err)
				}
				got[i] = append(got[i], s)
			}
		}(i)
	}
	wg.Wait()
	for j, k := range keys {
		for i := 1; i < callers; i++ {
			if got[i][j] != got[0][j] {
				t.Fatalf("New(%q, %d) returned distinct schemes to concurrent callers", k.name, k.bits)
			}
		}
		if again, _ := New(k.name, k.bits); again != got[0][j] {
			t.Errorf("New(%q, %d) rebuilt its scheme", k.name, k.bits)
		}
	}
	if Vendor232TLC() != Vendor232TLC() {
		t.Error("Vendor232TLC rebuilt its scheme")
	}
	values := [][]uint8{{1}, {0}}
	a, errA := NewCustom(values)
	b, errB := NewCustom(values)
	if errA != nil || errB != nil || a == b {
		t.Errorf("NewCustom shared a scheme (%p, %p) or failed (%v, %v)", a, b, errA, errB)
	}
}
