package ftl

import (
	"runtime"
	"strings"
	"testing"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
)

// src1_0Geom is the largest device any run builds: src1_0 at the 2,000,000
// requests of CI's drain run, on the facade's 16-plane TLC shape.
func src1_0Geom() flash.Geometry {
	g := flash.PaperTLC()
	g.ChipsPerChannel, g.PlanesPerDie, g.BlocksPerPlane = 2, 1, 683
	return g
}

// TestPPNRoundTrip packs and unpacks every (plane, block, page) of four
// shapes and checks each lands on a distinct value below noPPN, and that the
// page table agrees with pageIndex.
func TestPPNRoundTrip(t *testing.T) {
	geoms := map[string]flash.Geometry{
		"12-page TLC": {Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
			BlocksPerPlane: 10, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3},
		"64-wordline TLC": {Channels: 4, ChipsPerChannel: 2, DiesPerChip: 2, PlanesPerDie: 1,
			BlocksPerPlane: 9, WordlinesPerBlock: 64, PageSizeBytes: 8192, BitsPerCell: 3},
		"MLC": {Channels: 1, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 3,
			BlocksPerPlane: 5, WordlinesPerBlock: 7, PageSizeBytes: 8192, BitsPerCell: 2},
		"QLC": {Channels: 3, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
			BlocksPerPlane: 17, WordlinesPerBlock: 16, PageSizeBytes: 8192, BitsPerCell: 4},
	}
	for name, g := range geoms {
		f := mustFTL(t, Options{Geometry: g})
		seen := make(map[ppn]bool, g.TotalPages())
		for pl := flash.PlaneID(0); int(pl) < g.Planes(); pl++ {
			for blk := 0; blk < g.BlocksPerPlane; blk++ {
				for page := 0; page < g.PagesPerBlock(); page++ {
					p := f.packPPN(pl, blk, page)
					if p == noPPN || seen[p] {
						t.Fatalf("%s: p%d/b%d/pg%d packs to %#x, reserved or taken", name, pl, blk, page, p)
					}
					seen[p] = true
					if gpl, gblk, gpage := f.unpackPPN(p); gpl != pl || gblk != blk || gpage != page {
						t.Fatalf("%s: p%d/b%d/pg%d round-trips to p%d/b%d/pg%d", name, pl, blk, page, gpl, gblk, gpage)
					}
					c := f.coords[page]
					if f.pageIndex(int(c.wl), coding.PageType(c.t)) != page || int(c.t) >= g.BitsPerCell {
						t.Fatalf("%s: page %d has coordinates wl %d type %d", name, page, c.wl, c.t)
					}
				}
			}
		}
	}
}

// TestNewAcceptsLargestDevices pins the headroom of 32-bit PPNs: the
// paper's full 512 GB device packs into 27 bits, and the largest device any
// run builds is constructed.
func TestNewAcceptsLargestDevices(t *testing.T) {
	pageBits, blockBits, err := ppnFields(flash.PaperTLC())
	if err != nil {
		t.Fatalf("PaperTLC rejected: %v", err)
	}
	// 192 pages take 8 bits and 5472 blocks 13; with 6 for the 64 planes,
	// a PPN is 27 bits wide.
	if pageBits != 8 || blockBits != 13 {
		t.Errorf("PaperTLC page and block fields are %d and %d bits, want 8 and 13", pageBits, blockBits)
	}
	g := src1_0Geom()
	if g.TotalPages() != 2_098_176 {
		t.Fatalf("src1_0 geometry has %d pages, want 2,098,176", g.TotalPages())
	}
	f := mustFTL(t, Options{Geometry: g})
	last := flash.PlaneID(g.Planes() - 1)
	if pl, blk, page := f.unpackPPN(f.packPPN(last, g.BlocksPerPlane-1, g.PagesPerBlock()-1)); pl != last ||
		blk != g.BlocksPerPlane-1 || page != g.PagesPerBlock()-1 {
		t.Errorf("last page round-trips to p%d/b%d/pg%d", pl, blk, page)
	}
}

// TestNewRejectsTooWidePPN checks that a geometry one bit too wide for a
// 32-bit PPN, or whose last page would pack to the sentinel, fails in New
// with an error naming the width, before any table is allocated.
func TestNewRejectsTooWidePPN(t *testing.T) {
	wide := flash.PaperTLC()
	wide.BlocksPerPlane *= 32 // 18 block bits: exactly 32 bits wide
	if _, _, err := ppnFields(wide); err != nil {
		t.Fatalf("a 32-bit-wide geometry was rejected: %v", err)
	}
	wide.BlocksPerPlane *= 2 // 33 bits
	allOnes := flash.Geometry{Channels: 256, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 1 << 16, WordlinesPerBlock: 256, PageSizeBytes: 8192, BitsPerCell: 1}
	for name, g := range map[string]flash.Geometry{"33 bits": wide, "all ones": allOnes} {
		// Check the validation alone first, so a broken check fails here
		// instead of asking New for gigabytes.
		if _, _, err := ppnFields(g); err == nil {
			t.Fatalf("%s: ppnFields accepted a geometry of %d pages", name, g.TotalPages())
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New(Options{Geometry: g})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "physical page numbers") {
			t.Errorf("%s: New returned %v, want a PPN-width error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: rejected New allocated %d bytes", name, grew)
		}
	}
}

// TestSensingTableMatchesCode checks the FTL's sensing table against the
// code it was built from, for every registered code at every width the
// registry builds: mask 0 reads at Scheme.Senses, a kept page at the merged
// code's count, and a read of a page its wordline merged away panics. A code
// whose slowest page needs more sensings than Stats can bucket is rejected.
func TestSensingTableMatchesCode(t *testing.T) {
	checked := 0
	for _, name := range coding.Names() {
		for bits := 1; bits <= 8; bits++ {
			code, err := coding.New(name, bits)
			if err != nil {
				continue // the registry does not build this width
			}
			g := tinyGeom()
			g.BitsPerCell = bits
			f, err := New(Options{Geometry: g, Code: code})
			if code.MaxSenses() >= len(Stats{}.ReadsBySenses) {
				if err == nil {
					t.Errorf("%s/%d: FTL accepted a code needing %d sensings", name, bits, code.MaxSenses())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%d: %v", name, bits, err)
			}
			for keep := coding.ValidMask(0); keep <= coding.MaskAll(bits); keep++ {
				f.wlKeep[0] = uint8(keep)
				for typ := coding.PageType(0); int(typ) < bits; typ++ {
					switch {
					case keep == 0:
						if got, want := f.sensesAt(0, typ), code.Senses(typ); got != want {
							t.Errorf("%s/%d type %d: conventional senses %d, want %d", name, bits, typ, got, want)
						}
					case keep.Has(typ):
						if got, want := f.sensesAt(0, typ), code.Merge(keep).Senses(typ); got != want {
							t.Errorf("%s/%d keep %b type %d: senses %d, want %d", name, bits, keep, typ, got, want)
						}
					default:
						if !panics(func() { f.sensesAt(0, typ) }) {
							t.Errorf("%s/%d keep %b: reading dropped type %d did not panic", name, bits, keep, typ)
						}
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no code was checked")
	}
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestKeptPageSensesIgnoreLaterInvalidation pins that a read of a kept page
// is priced by the keep mask recorded at the IDA adjustment, not by the
// wordline's current validity: invalidating a kept sibling afterwards leaves
// the page's sensing count unchanged.
func TestKeptPageSensesIgnoreLaterInvalidation(t *testing.T) {
	f := mustFTL(t, refreshOpts(true, 0))
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	for w := 0; w < 4; w++ { // Table I case 2: keep CSB and MSB
		f.Write(lpnAt(0, w, coding.LSB), lateWrite)
	}
	if jobs := mustDueRefreshes(t, f, 11*hour); len(jobs) != 1 || jobs[0].AdjustedWLs != 4 {
		t.Fatalf("setup: want one IDA refresh adjusting 4 wordlines, got %+v", jobs)
	}
	for w := 0; w < 4; w++ {
		before, _ := f.Read(lpnAt(0, w, coding.MSB))
		if !before.IDA || before.Senses != 2 {
			t.Fatalf("WL %d MSB after adjustment: senses %d IDA %v, want 2 true", w, before.Senses, before.IDA)
		}
		f.Write(lpnAt(0, w, coding.CSB), 12*hour) // invalidate the kept CSB sibling
		after, _ := f.Read(lpnAt(0, w, coding.MSB))
		if after.Senses != before.Senses || after.Addr != before.Addr {
			t.Errorf("WL %d MSB after its CSB went invalid: senses %d at %v, want %d at %v",
				w, after.Senses, after.Addr, before.Senses, before.Addr)
		}
	}
	checkInvariants(t, f)
}
