package flash

import (
	"testing"
)

func TestPaperTLCGeometry(t *testing.T) {
	g := PaperTLC()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.PagesPerBlock(); got != 192 {
		t.Errorf("pages/block = %d, want 192 (64 WL x TLC)", got)
	}
	if got := g.Chips(); got != 16 {
		t.Errorf("chips = %d, want 16", got)
	}
	if got := g.Planes(); got != 64 {
		t.Errorf("planes = %d, want 64", got)
	}
	if got := g.TotalBlocks(); got != 350208 {
		t.Errorf("total blocks = %d, want 350208 (paper Section III-C)", got)
	}
	// 512 GB-class capacity: 350208 blocks x 192 pages x 8 KB = 513.3 GB.
	gb := float64(g.CapacityBytes()) / 1e9
	if gb < 500 || gb > 560 {
		t.Errorf("capacity = %.1f GB, want ~512-550", gb)
	}
	if g.String() == "" {
		t.Error("String() empty")
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []func(*Geometry){
		func(g *Geometry) { g.Channels = 0 },
		func(g *Geometry) { g.ChipsPerChannel = -1 },
		func(g *Geometry) { g.DiesPerChip = 0 },
		func(g *Geometry) { g.PlanesPerDie = 0 },
		func(g *Geometry) { g.BlocksPerPlane = 0 },
		func(g *Geometry) { g.WordlinesPerBlock = 0 },
		func(g *Geometry) { g.PageSizeBytes = 0 },
		func(g *Geometry) { g.BitsPerCell = 0 },
		func(g *Geometry) { g.BitsPerCell = 9 },
	}
	for i, mutate := range bad {
		g := PaperTLC()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

// coord decomposes a PlaneID into its hierarchy coordinates, the inverse
// of PlaneOf.
func coord(g Geometry, p PlaneID) PlaneCoord {
	i := int(p)
	pl := i % g.PlanesPerDie
	i /= g.PlanesPerDie
	d := i % g.DiesPerChip
	i /= g.DiesPerChip
	ch := i % g.ChipsPerChannel
	i /= g.ChipsPerChannel
	return PlaneCoord{Channel: i, Chip: ch, Die: d, Plane: pl}
}

func TestPlaneCoordRoundTrip(t *testing.T) {
	g := PaperTLC()
	seen := make(map[PlaneCoord]bool)
	for p := PlaneID(0); int(p) < g.Planes(); p++ {
		c := coord(g, p)
		if c.Channel < 0 || c.Channel >= g.Channels ||
			c.Chip < 0 || c.Chip >= g.ChipsPerChannel ||
			c.Die < 0 || c.Die >= g.DiesPerChip ||
			c.Plane < 0 || c.Plane >= g.PlanesPerDie {
			t.Fatalf("plane %d coord %+v out of range", p, c)
		}
		if seen[c] {
			t.Fatalf("plane %d coord %+v duplicated", p, c)
		}
		seen[c] = true
		if back := g.PlaneOf(c); back != p {
			t.Errorf("PlaneOf(Coord(%d)) = %d", p, back)
		}
	}
}

func TestDieAndChannelOf(t *testing.T) {
	g := PaperTLC()
	for p := PlaneID(0); int(p) < g.Planes(); p++ {
		c := coord(g, p)
		wantDie := ((c.Channel*g.ChipsPerChannel)+c.Chip)*g.DiesPerChip + c.Die
		if got := g.DieOf(p); got != wantDie {
			t.Errorf("DieOf(%d) = %d, want %d", p, got, wantDie)
		}
		if got := g.ChannelOf(p); got != c.Channel {
			t.Errorf("ChannelOf(%d) = %d, want %d", p, got, c.Channel)
		}
	}
}

func TestAddrStrings(t *testing.T) {
	b := BlockAddr{Plane: 3, Block: 17}
	if b.String() != "p3/b17" {
		t.Errorf("BlockAddr string = %q", b.String())
	}
	p := PageAddr{BlockAddr: b, Page: 5}
	if p.String() != "p3/b17/pg5" {
		t.Errorf("PageAddr string = %q", p.String())
	}
}
