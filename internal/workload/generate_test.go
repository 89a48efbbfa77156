package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Name: "det", ReadRatio: 0.9, MeanReadKB: 32, ReadDataRatio: 0.95, Requests: 2000}
	a, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ between runs")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestGenerateSeedsAndNamesDiffer(t *testing.T) {
	base := Profile{Name: "a", ReadRatio: 0.9, MeanReadKB: 32, ReadDataRatio: 0.95, Requests: 500}
	a, _ := base.Generate()
	other := base
	other.Seed = 99
	b, _ := other.Generate()
	renamed := base
	renamed.Name = "b"
	c, _ := renamed.Generate()
	same := func(x, y *Trace) bool {
		for i := range x.Requests {
			if x.Requests[i] != y.Requests[i] {
				return false
			}
		}
		return true
	}
	if same(a, b) {
		t.Error("different seeds produced identical traces")
	}
	if same(a, c) {
		t.Error("different names produced identical traces")
	}
}

func TestGenerateMatchesProfileTargets(t *testing.T) {
	for _, p := range PaperProfiles(20000) {
		tr, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		s := tr.Stats()
		if math.Abs(s.ReadRatio-p.ReadRatio) > 0.02 {
			t.Errorf("%s: read ratio %.3f, want %.3f", p.Name, s.ReadRatio, p.ReadRatio)
		}
		if rel := math.Abs(s.MeanReadKB-p.MeanReadKB) / p.MeanReadKB; rel > 0.20 {
			t.Errorf("%s: mean read KB %.1f, want %.1f (+-20%%)", p.Name, s.MeanReadKB, p.MeanReadKB)
		}
		// Read data ratio tracks the target loosely: sizes are clamped
		// to [8KB, 512KB] which biases extreme profiles.
		if p.ReadDataRatio > 0.3 && p.ReadDataRatio < 0.995 {
			if math.Abs(s.ReadDataRatio-p.ReadDataRatio) > 0.12 {
				t.Errorf("%s: read data ratio %.3f, want %.3f (+-0.12)", p.Name, s.ReadDataRatio, p.ReadDataRatio)
			}
		}
	}
}

func TestGenerateAlignment(t *testing.T) {
	p := Profile{Name: "align", ReadRatio: 0.5, MeanReadKB: 20, ReadDataRatio: 0.5, Requests: 3000}
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	np, _ := p.Normalize()
	footprint := int64(np.FootprintMB * 1024 * 1024)
	for i, r := range tr.Requests {
		if r.Offset%alignBytes != 0 {
			t.Fatalf("request %d offset %d unaligned", i, r.Offset)
		}
		if r.Size%alignBytes != 0 || r.Size <= 0 {
			t.Fatalf("request %d size %d unaligned", i, r.Size)
		}
		if r.End() > footprint+alignBytes {
			t.Fatalf("request %d end %d beyond footprint %d", i, r.End(), footprint)
		}
	}
}

func TestNormalizeDefaultsAndErrors(t *testing.T) {
	p, err := Profile{Name: "d", ReadRatio: 0.9, MeanReadKB: 32, ReadDataRatio: 0.9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Requests == 0 || p.Duration == 0 || p.MeanWriteKB == 0 || p.FootprintMB == 0 {
		t.Errorf("defaults not filled: %+v", p)
	}
	bad := []Profile{
		{},
		{Name: "x", ReadRatio: -0.1, MeanReadKB: 8},
		{Name: "x", ReadRatio: 1.5, MeanReadKB: 8},
		{Name: "x", ReadRatio: 0.5, MeanReadKB: 0},
		{Name: "x", ReadRatio: 0.5, MeanReadKB: 8, Requests: -1},
		{Name: "x", ReadRatio: 0.5, MeanReadKB: 8, Duration: -time.Second},
		{Name: "x", ReadRatio: 0.5, MeanReadKB: 8, SeqProb: 1.5},
		{Name: "x", ReadRatio: 0.5, MeanReadKB: 8, TargetInvalidMSB: 1.5},
		{Name: "x", ReadRatio: 0.5, MeanReadKB: 8, FootprintMB: -3},
	}
	for i, b := range bad {
		if _, err := b.Normalize(); err == nil {
			t.Errorf("case %d should fail: %+v", i, b)
		}
	}
}

func TestDeriveWriteKBReproducesDataRatio(t *testing.T) {
	p := Profile{Name: "w", ReadRatio: 0.9, MeanReadKB: 40, ReadDataRatio: 0.9}
	w := p.deriveWriteKB()
	// With these sizes, read bytes fraction = rr*r / (rr*r + (1-rr)*w).
	got := (0.9 * 40) / (0.9*40 + 0.1*w)
	if math.Abs(got-0.9) > 1e-9 {
		t.Errorf("derived write size %v gives data ratio %v, want 0.9", w, got)
	}
	// Fully-read profiles fall back rather than dividing by zero.
	p100 := Profile{Name: "w", ReadRatio: 1.0, MeanReadKB: 40, ReadDataRatio: 0.9}
	if w := p100.deriveWriteKB(); w <= 0 {
		t.Errorf("fallback write size = %v", w)
	}
}

// TestProfileByNameAllocationFree: a lookup reads the built-once templates
// in place. Every /v1/run parse and every batch point makes one.
func TestProfileByNameAllocationFree(t *testing.T) {
	for _, name := range []string{"usr_2", "rr60"} {
		var p Profile
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if p, err = ProfileByName(name, 4000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ProfileByName(%q) made %v allocations, want 0", name, allocs)
		}
		if p.Name != name || p.Requests != 4000 {
			t.Errorf("ProfileByName(%q) = %+v", name, p)
		}
	}
	// Callers get copies: setting one's budget leaves the templates alone.
	if p, _ := ProfileByName("usr_2", 0); p.Requests != 0 {
		t.Errorf("a lookup's budget leaked into the template: %+v", p)
	}
}

func TestProfileRegistry(t *testing.T) {
	if len(PaperProfiles(0)) != 11 {
		t.Fatalf("paper profiles = %d, want 11", len(PaperProfiles(0)))
	}
	if len(ExtraProfiles(0)) != 9 {
		t.Fatalf("extra profiles = %d, want 9", len(ExtraProfiles(0)))
	}
	if len(ProfileNames()) != 11 {
		t.Fatalf("profile names = %d", len(ProfileNames()))
	}
	p, err := ProfileByName("usr_1", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Requests != 5000 || math.Abs(p.ReadRatio-0.9148) > 1e-9 {
		t.Errorf("usr_1 = %+v", p)
	}
	if _, err := ProfileByName("rr85", 0); err != nil {
		t.Errorf("extra profile lookup failed: %v", err)
	}
	if _, err := ProfileByName("nope", 0); err == nil {
		t.Error("unknown profile should fail")
	}
	// Every registered profile must normalize cleanly.
	for _, p := range append(PaperProfiles(0), ExtraProfiles(0)...) {
		if _, err := p.Normalize(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestBurstStructure(t *testing.T) {
	p := Profile{Name: "burst", ReadRatio: 0.9, MeanReadKB: 32, ReadDataRatio: 0.9,
		Requests: 20000, BurstMean: 100, BurstGap: 100 * time.Microsecond}
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Count tight gaps (the intra-burst spacing) vs. loose gaps: with a
	// mean burst of 100, the vast majority of inter-arrival gaps must be
	// exactly the burst gap.
	tight, loose := 0, 0
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].At-tr.Requests[i-1].At <= 2*p.BurstGap {
			tight++
		} else {
			loose++
		}
	}
	if frac := float64(tight) / float64(tight+loose); frac < 0.90 {
		t.Errorf("tight-gap fraction = %.2f, want bursty (>= 0.90)", frac)
	}
	if loose < 20 {
		t.Errorf("only %d burst boundaries; arrivals not clustered", loose)
	}
	// Type homogeneity within bursts: transitions between read and write
	// requests should be far rarer than requests.
	trans := 0
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Read != tr.Requests[i-1].Read {
			trans++
		}
	}
	if trans > len(tr.Requests)/20 {
		t.Errorf("%d type transitions in %d requests; bursts not homogeneous", trans, len(tr.Requests))
	}
}

func TestAgingPreamble(t *testing.T) {
	p := Profile{Name: "age", ReadRatio: 0.9, MeanReadKB: 32, ReadDataRatio: 0.9, Requests: 5000}
	pre, err := p.AgingPreamble()
	if err != nil {
		t.Fatal(err)
	}
	np, _ := p.Normalize()
	pages := int64(np.FootprintMB*1024*1024) / alignBytes
	if got, want := len(pre.Requests), int(float64(pages)*2.45); got != want {
		t.Errorf("preamble size = %d, want %d (2.45 rounds)", got, want)
	}
	for i, r := range pre.Requests {
		if r.Read {
			t.Fatalf("request %d is a read; preamble must be write-only", i)
		}
		if r.Size != alignBytes {
			t.Fatalf("request %d size %d; preamble writes single pages", i, r.Size)
		}
		if r.At != 0 {
			t.Fatalf("request %d at %v; preamble is instantaneous", i, r.At)
		}
		if r.End() > pages*alignBytes {
			t.Fatalf("request %d beyond footprint", i)
		}
	}
	// Deterministic.
	pre2, _ := p.AgingPreamble()
	for i := range pre.Requests {
		if pre.Requests[i] != pre2.Requests[i] {
			t.Fatal("preamble not deterministic")
		}
	}
}

// The aging stream yields exactly AgingPreamble's requests, in order, for
// every paper and extra profile at two budgets.
func TestAgingStreamMatchesPreamble(t *testing.T) {
	for _, requests := range []int{2500, 10000} {
		for _, p := range append(PaperProfiles(requests), ExtraProfiles(requests)...) {
			pre, err := p.AgingPreamble()
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.AgingStream()
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for r, ok := s.Next(); ok; r, ok = s.Next() {
				if i >= len(pre.Requests) || r != pre.Requests[i] {
					t.Fatalf("%s@%d: streamed request %d is %+v, the preamble's differs", p.Name, requests, i, r)
				}
				i++
			}
			if i != len(pre.Requests) {
				t.Errorf("%s@%d: streamed %d requests, the preamble holds %d", p.Name, requests, i, len(pre.Requests))
			}
		}
	}
}

// A pooled rng reseeded in place yields the stream a new source with that
// seed would, however far it was drawn before, so generation takes no new
// 4.9 KB source: opening and draining an aging stream allocates only the
// stream, and Generate only its trace, request slice and zipf source.
func TestGeneratorsReusePooledRngs(t *testing.T) {
	r := seededRand(7)
	for i := 0; i < 1000; i++ {
		r.Int63()
	}
	rngs.Put(r)
	got, want := seededRand(42), rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("draw %d: reseeded rng gave %d, a new source %d", i, a, b)
		}
	}
	rngs.Put(got)

	p, err := ProfileByName("usr_1", 2500)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		s, err := p.AgingStream()
		if err != nil {
			t.Fatal(err)
		}
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
	}
	if n := testing.AllocsPerRun(50, drain); n > 1 {
		t.Errorf("an aging stream made %v allocations, want 1", n)
	}
	generate := func() {
		if _, err := p.Generate(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, generate); n > 3 {
		t.Errorf("Generate made %v allocations, want 3", n)
	}
}
