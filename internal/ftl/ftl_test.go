package ftl

import (
	"slices"
	"testing"
	"time"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// tinyGeom returns a deliberately small TLC device: 1 plane, 8 blocks of 4
// wordlines (12 pages each), 96 pages total.
func tinyGeom() flash.Geometry {
	return flash.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 8, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
	}
}

// multiPlaneGeom returns a 2x2x2x2 = 16-plane device for striping tests.
func multiPlaneGeom() flash.Geometry {
	return flash.Geometry{
		Channels: 2, ChipsPerChannel: 2, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 6, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
	}
}

func mustFTL(t *testing.T, opts Options) *FTL {
	t.Helper()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkInvariants verifies the structural consistency of the FTL: valid
// counts match the wordline validity masks, every mapping points at a valid
// page whose reverse map points back, the global valid-page count equals the
// mapped LPN count, and every block with no program step taken has zero
// masks and reverse-map entries (the part Snapshot leaves out).
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	totalValid := 0
	pages := len(f.coords)
	for pl, ps := range f.planes {
		seenFree := make(map[int]bool)
		for _, blk := range ps.free {
			if seenFree[blk] {
				t.Fatalf("plane %d: block %d on free list twice", pl, blk)
			}
			seenFree[blk] = true
			if b := f.block(flash.PlaneID(pl), blk); b.NextStep != 0 {
				t.Fatalf("plane %d: free block %d not erased", pl, blk)
			}
		}
		for blk, b := range f.planeBlocks(flash.PlaneID(pl)) {
			gb := f.blockID(flash.PlaneID(pl), blk)
			if valid, keep, rmap := f.blockTables(gb); b.NextStep == 0 &&
				(slices.ContainsFunc(valid, nonZero) || slices.ContainsFunc(keep, nonZero) || slices.ContainsFunc(rmap, nonZero)) {
				t.Fatalf("plane %d block %d unprogrammed but has masks or reverse-map entries", pl, blk)
			}
			n := 0
			for page := 0; page < pages; page++ {
				if !f.pageValid(gb, page) {
					continue
				}
				n++
				lpn := LPN(f.rmap[gb*pages+page])
				p, ok := f.l2p.get(lpn)
				if !ok {
					t.Fatalf("plane %d block %d page %d valid but LPN %d unmapped", pl, blk, page, lpn)
				}
				gpl, gblk, gpage := f.unpackPPN(p)
				if int(gpl) != pl || gblk != blk || gpage != page {
					t.Fatalf("LPN %d maps to %v but valid at p%d/b%d/pg%d", lpn, f.addrOf(p), pl, blk, page)
				}
			}
			if n != b.ValidCount {
				t.Fatalf("plane %d block %d ValidCount %d but %d valid bits", pl, blk, b.ValidCount, n)
			}
			totalValid += n
		}
	}
	if totalValid != f.l2p.len() {
		t.Fatalf("%d valid pages but %d mapped LPNs", totalValid, f.l2p.len())
	}
}

func nonZero[T uint8 | uint32](v T) bool { return v != 0 }

func TestWriteReadRoundTrip(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	prog, err := f.Write(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := f.Read(42)
	if !ok {
		t.Fatal("read of written LPN failed")
	}
	if info.Addr != prog.Addr {
		t.Errorf("read addr %v != write addr %v", info.Addr, prog.Addr)
	}
	if info.LPN != 42 {
		t.Errorf("read LPN = %d", info.LPN)
	}
	// First page programmed under shadow order is the LSB of WL 0.
	if info.Type != coding.LSB || info.Senses != 1 || info.Class != ReadLSB {
		t.Errorf("first page info = %+v", info)
	}
	if _, ok := f.Read(7); ok {
		t.Error("read of unwritten LPN should miss")
	}
	checkInvariants(t, f)
}

func TestOverwriteInvalidates(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	first, _ := f.Write(1, 0)
	second, err := f.Write(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Addr == second.Addr {
		t.Error("overwrite reused the same physical page")
	}
	info, _ := f.Read(1)
	if info.Addr != second.Addr {
		t.Errorf("read returned stale address %v", info.Addr)
	}
	if got := f.Stats().Invalidations; got != 1 {
		t.Errorf("invalidations = %d", got)
	}
	checkInvariants(t, f)
}

func TestTrim(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	f.Write(5, 0)
	f.Trim(5)
	if _, ok := f.Read(5); ok {
		t.Error("trimmed LPN still readable")
	}
	f.Trim(5) // double trim is a no-op
	if f.MappedPages() != 0 {
		t.Errorf("mapped pages = %d", f.MappedPages())
	}
	checkInvariants(t, f)
}

func TestPageTypeSensesConventional(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	// Fill one block: 12 writes. Under shadow order every page type
	// appears; senses must be 1/2/4 for LSB/CSB/MSB.
	for i := LPN(0); i < 12; i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	wantSenses := map[coding.PageType]int{coding.LSB: 1, coding.CSB: 2, coding.MSB: 4}
	seen := map[coding.PageType]int{}
	for i := LPN(0); i < 12; i++ {
		info, ok := f.Read(i)
		if !ok {
			t.Fatalf("LPN %d unmapped", i)
		}
		if info.Senses != wantSenses[info.Type] {
			t.Errorf("LPN %d type %v senses %d", i, info.Type, info.Senses)
		}
		seen[info.Type]++
	}
	if seen[coding.LSB] != 4 || seen[coding.CSB] != 4 || seen[coding.MSB] != 4 {
		t.Errorf("page type distribution = %v", seen)
	}
}

func TestReadClassification(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	// Steps 0-4 of the shadow order program all of WL0 (and WL1's LSB and
	// CSB); the next write, step 5, lands on the LSB of WL2.
	for i := LPN(0); i < 5; i++ {
		f.Write(i, 0)
	}
	lsb, csb, msb := lpnAt(0, 0, coding.LSB), lpnAt(0, 0, coding.CSB), lpnAt(0, 0, coding.MSB)
	if info, _ := f.Read(msb); info.Class != ReadMSBAllValid {
		t.Errorf("MSB class with all valid = %v", info.Class)
	}
	if info, _ := f.Read(csb); info.Class != ReadCSBAllValid {
		t.Errorf("CSB class with all valid = %v", info.Class)
	}
	// Overwrite the LSB: its WL0 copy goes invalid.
	f.Write(lsb, 0)
	if info, _ := f.Read(msb); info.Class != ReadMSBLowerInvalid {
		t.Errorf("MSB class with LSB invalid = %v", info.Class)
	}
	if info, _ := f.Read(csb); info.Class != ReadCSBLowerInvalid {
		t.Errorf("CSB class with LSB invalid = %v", info.Class)
	}
	// The relocated LSB's LPN is an LSB read again somewhere else.
	if info, _ := f.Read(lsb); info.Class != ReadLSB {
		t.Errorf("LSB class = %v", info.Class)
	}
	st := f.Stats()
	if st.ReadsByClass[ReadMSBLowerInvalid] != 1 || st.ReadsByClass[ReadCSBLowerInvalid] != 1 {
		t.Errorf("class counters = %v", st.ReadsByClass)
	}
	checkInvariants(t, f)
}

func TestCWDPStriping(t *testing.T) {
	g := multiPlaneGeom()
	f := mustFTL(t, Options{Geometry: g})
	// The first Planes() writes must each land on a distinct plane, and
	// consecutive writes must alternate channels first (CWDP).
	seen := make(map[flash.PlaneID]bool)
	var prevChannel = -1
	for i := 0; i < g.Planes(); i++ {
		prog, err := f.Write(LPN(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[prog.Addr.Plane] {
			t.Fatalf("write %d reused plane %d", i, prog.Addr.Plane)
		}
		seen[prog.Addr.Plane] = true
		ch := g.ChannelOf(prog.Addr.Plane)
		if prevChannel >= 0 && i%g.Channels != 0 && ch == prevChannel {
			t.Errorf("write %d stayed on channel %d; CWDP should stripe channels first", i, ch)
		}
		prevChannel = ch
	}
	// First stripe of writes: channel must vary fastest.
	f2 := mustFTL(t, Options{Geometry: g})
	var channels []int
	for i := 0; i < 4; i++ {
		prog, _ := f2.Write(LPN(i), 0)
		channels = append(channels, g.ChannelOf(prog.Addr.Plane))
	}
	if channels[0] == channels[1] {
		t.Errorf("first two writes on channels %v; want distinct", channels)
	}
}

func TestWriteFailsWhenFull(t *testing.T) {
	g := tinyGeom()
	f := mustFTL(t, Options{Geometry: g})
	f.gcFreeBlocks = 1
	// Fill the whole device with distinct LPNs: no page is invalid, so GC
	// cannot help, and one more write, even an overwrite, finds no room.
	for i := LPN(0); i < LPN(g.TotalPages()); i++ {
		if _, err := f.Write(i, 0); err != nil {
			t.Fatalf("write %d of %d: %v", i, g.TotalPages(), err)
		}
	}
	if _, err := f.Write(0, 0); err == nil {
		t.Fatal("writing past device capacity should fail")
	}
}

func TestOptionsValidation(t *testing.T) {
	good := tinyGeom()
	cases := []Options{
		{},
		{Geometry: good, ErrorRate: -0.1},
		{Geometry: good, ErrorRate: 1.1},
		{Geometry: good, RefreshPeriod: -time.Second},
		{Geometry: good, Code: coding.NewGray(2)},
	}
	// A plane needs more blocks than the GC watermark.
	small := good
	small.BlocksPerPlane = gcWatermark
	cases = append(cases, Options{Geometry: small})
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}

	// A code whose slowest page needs more sensings than Stats.ReadsBySenses
	// has buckets is rejected: 5-bit ida needs 16, 4-bit ida needs 8.
	dense := func(bits int) Options {
		g := good
		g.BitsPerCell = bits
		code, err := coding.New("ida", bits)
		if err != nil {
			t.Fatal(err)
		}
		return Options{Geometry: g, Code: code}
	}
	if _, err := New(dense(5)); err == nil {
		t.Error("5-bit ida should be rejected: its reads overflow ReadsBySenses")
	}
	if _, err := New(dense(4)); err != nil {
		t.Errorf("4-bit ida: %v", err)
	}
}

func TestMappedAndUsage(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	if _, ok := f.l2p.get(3); ok {
		t.Error("unmapped LPN reported mapped")
	}
	for i := LPN(0); i < 12; i++ {
		f.Write(i, 0)
	}
	if _, ok := f.l2p.get(3); !ok || f.MappedPages() != 12 {
		t.Error("mapping census wrong")
	}
	u := f.Usage()
	if u.Total != 8 {
		t.Errorf("total blocks = %d", u.Total)
	}
	// One block fully programmed (12 pages), no active block remains
	// open, seven free.
	if u.InUse != 1 || u.Free != 7 {
		t.Errorf("usage = %+v", u)
	}
	var _ sim.Time // keep the import honest in minimal builds
}

func TestWearStats(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	w := f.WearStats()
	if w.MinErase != 0 || w.MaxErase != 0 || w.Spread != 0 || w.MeanErase != 0 {
		t.Errorf("fresh device wear = %+v", w)
	}
	// Churn the device: repeated overwrites force GC-driven erases.
	for round := 0; round < 12; round++ {
		for i := LPN(0); i < 24; i++ {
			if _, err := f.Write(i, 0); err != nil {
				t.Fatal(err)
			}
		}
		mustCollectGC(t, f, 0)
	}
	w = f.WearStats()
	if w.MaxErase == 0 {
		t.Fatal("no erases after churn")
	}
	if w.MinErase > w.MaxErase || w.Spread != w.MaxErase-w.MinErase {
		t.Errorf("inconsistent wear: %+v", w)
	}
	if w.MeanErase <= 0 || w.MeanErase > float64(w.MaxErase) {
		t.Errorf("mean erase %v out of range", w.MeanErase)
	}
	// The greedy wear-aware tie-break keeps the spread modest: no block
	// should carry more than a few times the mean wear.
	if float64(w.MaxErase) > 6*(w.MeanErase+1) {
		t.Errorf("wear badly skewed: %+v", w)
	}
}

// TestAllocationOrders pins the static CWDP stripe: consecutive writes step
// through the channels first, then the chips, the dies and the planes, and
// the stripe repeats once every plane has had a page.
func TestAllocationOrders(t *testing.T) {
	g := multiPlaneGeom() // 2 channels x 2 chips x 2 dies x 2 planes
	f := mustFTL(t, Options{Geometry: g})
	// PlaneID = 8*channel + 4*chip + 2*die + plane.
	want := []flash.PlaneID{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}
	for i := 0; i < 2*len(want); i++ {
		prog, err := f.Write(LPN(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Addr.Plane != want[i%len(want)] {
			t.Fatalf("write %d landed on plane %d, want %d", i, prog.Addr.Plane, want[i%len(want)])
		}
	}
}

// TestReadSensesUnderKeepMask checks the sensing count of a read on an
// IDA-adjusted wordline, and that reading a page the adjustment merged away
// panics: the FTL never maps such a page, so a read of one is a logic error.
func TestReadSensesUnderKeepMask(t *testing.T) {
	f := mustFTL(t, Options{Geometry: tinyGeom()})
	var lpn LPN
	var prog PageProgram
	for ; ; lpn++ { // the first MSB page the program order writes
		var err error
		if prog, err = f.Write(lpn, 0); err != nil {
			t.Fatal(err)
		}
		if coding.PageType(f.coords[prog.Addr.Page].t) == coding.MSB {
			break
		}
	}
	w, _ := f.wordline(f.blockID(prog.Addr.Plane, prog.Addr.Block), prog.Addr.Page)
	// Table I case 2: the LSB is merged away, the MSB needs 2 sensings.
	f.wlKeep[w] = uint8(coding.MaskAll(3).Without(coding.LSB))
	if info, _ := f.Read(lpn); info.Senses != 2 || !info.IDA {
		t.Errorf("MSB read on an LSB-merged wordline: senses %d IDA %v, want 2 true", info.Senses, info.IDA)
	}
	f.wlKeep[w] = uint8(coding.MaskAll(3).Without(coding.MSB))
	defer func() {
		if recover() == nil {
			t.Error("reading a merged-away page did not panic")
		}
	}()
	f.Read(lpn)
}

// TestUsageCountsIDAValidPages checks the merge-state page census.
func TestUsageCountsIDAValidPages(t *testing.T) {
	f := mustFTL(t, Options{
		Geometry:      tinyGeom(),
		IDAEnabled:    true,
		RefreshPeriod: time.Minute,
	})
	// Fill a block, invalidate some LSBs so refresh has IDA work, age it,
	// refresh.
	for i := 0; i < 24; i++ {
		if _, err := f.Write(LPN(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	f.CloseActiveBlocks()
	mustDueRefreshes(t, f, sim.Time(2*time.Minute))
	u := f.Usage()
	if u.IDABlocks == 0 {
		t.Fatal("no IDA blocks after an IDA refresh; test is vacuous")
	}
	if u.IDAValidPages == 0 {
		t.Error("IDA blocks present but IDAValidPages = 0")
	}
	// The census sums exactly the valid counts of IDA blocks.
	want := 0
	for pl, ps := range f.planes {
		for blk, b := range f.planeBlocks(flash.PlaneID(pl)) {
			if blk != ps.active && b.NextStep > 0 && b.ValidCount > 0 && b.IDA {
				want += b.ValidCount
			}
		}
	}
	if u.IDAValidPages != want {
		t.Errorf("IDAValidPages = %d, want %d", u.IDAValidPages, want)
	}
	// Merging two censuses sums the field.
	if got := u.Add(u).IDAValidPages; got != 2*want {
		t.Errorf("Add: IDAValidPages = %d, want %d", got, 2*want)
	}
}
