package snapshot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"idaflash/internal/flash"
	"idaflash/internal/frame"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
)

// randState builds a structurally plausible random device state: mixed
// programmed and erased blocks with their wordline masks and reverse-map
// entries, a full L2P table, buffered GC jobs with and without moves, and
// every flag combination the codec packs.
func randState(rng *rand.Rand) *DeviceState {
	g := flash.Geometry{
		Channels: 1 + rng.Intn(2), ChipsPerChannel: 1, DiesPerChip: 1,
		PlanesPerDie: 1 + rng.Intn(2), BlocksPerPlane: 2 + rng.Intn(6),
		WordlinesPerBlock: 2 + rng.Intn(4), PageSizeBytes: 8192,
		BitsPerCell: 3,
	}
	pages := g.WordlinesPerBlock * g.BitsPerCell
	st := &ftl.State{
		Geometry:    g,
		AllocCursor: rng.Intn(16),
		RNGDraws:    rng.Uint64(),
		Stats: ftl.Stats{
			HostWrites:      rng.Uint64(),
			Erases:          rng.Uint64(),
			ProgramPower:    rng.Float64() * 1e6,
			ProgrammedCells: rng.Float64() * 1e6,
			RetiredBlocks:   uint64(rng.Intn(4)),
		},
		Refreshing:       flash.BlockAddr{Plane: flash.PlaneID(rng.Intn(4)), Block: rng.Intn(8)},
		RefreshingActive: rng.Intn(2) == 0,
	}
	for i := range st.Stats.ReadsByClass {
		st.Stats.ReadsByClass[i] = rng.Uint64()
	}
	st.DenseL2P = make([]uint32, g.TotalPages())
	for i := range st.DenseL2P {
		st.DenseL2P[i] = rng.Uint32()
	}
	st.L2PCount = rng.Intn(100)
	st.Planes = make([]ftl.PlaneState, g.Planes())
	for pl := range st.Planes {
		ps := ftl.PlaneState{Active: rng.Intn(g.BlocksPerPlane+1) - 1}
		if n := rng.Intn(3); n > 0 {
			ps.Free = make([]int, n)
			for i := range ps.Free {
				ps.Free[i] = rng.Intn(g.BlocksPerPlane)
			}
		}
		st.Planes[pl] = ps
	}
	st.Blocks = make([]ftl.BlockState, g.TotalBlocks())
	for gb := range st.Blocks {
		if rng.Intn(3) == 0 {
			continue // erased block: zero scalars, no masks or entries
		}
		st.Blocks[gb] = ftl.BlockState{
			EraseCount:   rng.Intn(100),
			OpenedAt:     sim.Time(rng.Int63n(1 << 40)),
			ProgrammedAt: sim.Time(rng.Int63n(1 << 40)),
			NextStep:     1 + rng.Intn(pages),
			ValidCount:   rng.Intn(pages),
			IDA:          rng.Intn(2) == 0,
			Refreshed:    rng.Intn(2) == 0,
			Bad:          rng.Intn(4) == 0,
			Retired:      rng.Intn(4) == 0,
		}
		for i := 0; i < g.WordlinesPerBlock; i++ {
			st.WLValid = append(st.WLValid, uint8(rng.Intn(8)))
			st.WLKeep = append(st.WLKeep, uint8(rng.Intn(8)))
		}
		for i := 0; i < pages; i++ {
			st.RMap = append(st.RMap, rng.Uint32())
		}
	}
	for i := 0; i < rng.Intn(3); i++ {
		job := ftl.GCJob{
			Victim:       flash.BlockAddr{Plane: flash.PlaneID(rng.Intn(4)), Block: rng.Intn(8)},
			VictimWasIDA: rng.Intn(2) == 0,
		}
		if n := rng.Intn(4); n > 0 {
			job.Moves = make([]ftl.MoveOp, n)
			for m := range job.Moves {
				job.Moves[m] = ftl.MoveOp{
					From:       ftl.PageRef{Block: uint16(rng.Intn(8)), Page: uint16(rng.Intn(pages))},
					To:         ftl.PageRef{Block: uint16(rng.Intn(8)), Page: uint16(rng.Intn(pages))},
					FromSenses: uint8(1 + rng.Intn(7)),
					LPN:        uint32(rng.Int63n(1 << 30)),
				}
			}
		}
		st.PendingGC = append(st.PendingGC, job)
	}
	return &DeviceState{FTL: st, InjectorDraws: rng.Uint64()}
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		st := randState(rand.New(rand.NewSource(seed)))
		b, err := Encode(st)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

// TestCodecRoundTripsMaximalMoves: pending GC moves holding the largest
// value of every packed field, and the zero values, round-trip through the
// wire's 64-bit fields unchanged, and a wire value past a packed field's
// width fails the decode instead of truncating.
func TestCodecRoundTripsMaximalMoves(t *testing.T) {
	st := randState(rand.New(rand.NewSource(1)))
	top := ftl.PageRef{Plane: math.MaxUint16, Block: math.MaxUint16, Page: math.MaxUint16}
	st.FTL.PendingGC = []ftl.GCJob{{
		Victim: flash.BlockAddr{Plane: math.MaxUint16, Block: math.MaxUint16},
		Moves: []ftl.MoveOp{
			{From: top, To: top, LPN: math.MaxUint32, FromSenses: math.MaxUint8, FailedPrograms: math.MaxUint16},
			{},
		},
	}}
	b, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("maximal moves decoded as %+v, want %+v", got.FTL.PendingGC, st.FTL.PendingGC)
	}
	if again, err := Encode(got); err != nil || !bytes.Equal(again, b) {
		t.Fatalf("re-encoding the decoded state changed its bytes (err %v)", err)
	}

	for _, c := range []struct {
		name  string
		v     int64
		field func(*decoder)
	}{
		{"page index", math.MaxUint16 + 1, func(d *decoder) { d.pageRef() }},
		{"negative page index", -1, func(d *decoder) { d.pageRef() }},
		{"sensing count", math.MaxUint8 + 1, func(d *decoder) { d.bounded(math.MaxUint8) }},
		{"LPN", math.MaxUint32 + 1, func(d *decoder) { d.bounded(math.MaxUint32) }},
	} {
		var e encoder
		for i := 0; i < 3; i++ {
			e.i64(c.v)
		}
		d := decoder{b: e.buf}
		c.field(&d)
		if !errors.Is(d.err, ErrCorrupt) {
			t.Errorf("%s %d: decode error %v, want ErrCorrupt", c.name, c.v, d.err)
		}
	}
}

// TestEncodeAllocatesOnce: Encode sizes the file exactly from the state and
// encodes into it in place, so it makes one allocation, the file it
// returns, with no spare capacity.
func TestEncodeAllocatesOnce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		st := randState(rand.New(rand.NewSource(seed)))
		var b []byte
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if b, err = Encode(st); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 || len(b) != cap(b) {
			t.Fatalf("seed %d: %v allocs, len %d, cap %d; want 1 alloc with len == cap", seed, allocs, len(b), cap(b))
		}
	}
}

// TestCodecDeterministic: equal states encode to equal bytes, whether they
// are the same value or two independently built copies.
func TestCodecDeterministic(t *testing.T) {
	a, err := Encode(randState(rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(randState(rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of equal states differ")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full, err := Encode(randState(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", n, len(full))
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	full, err := Encode(randState(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), full...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		if st, err := Decode(mut); err == nil {
			// The only byte a flip may go unnoticed in does not exist:
			// header fields are validated, the payload is checksummed.
			_ = st
			t.Fatalf("trial %d: decode accepted a corrupted file", trial)
		}
	}
}

func TestDecodeErrorKinds(t *testing.T) {
	full, err := Encode(randState(rand.New(rand.NewSource(6))))
	if err != nil {
		t.Fatal(err)
	}

	notSnap := append([]byte(nil), full...)
	notSnap[0] = 'X'
	if _, err := Decode(notSnap); !errors.Is(err, frame.ErrMagic) {
		t.Errorf("bad magic: got %v, want frame.ErrMagic", err)
	}
	if _, err := Decode([]byte("short")); !errors.Is(err, frame.ErrMagic) {
		t.Errorf("junk: got %v, want frame.ErrMagic", err)
	}

	wrongVer := append([]byte(nil), full...)
	wrongVer[len(format.Magic)] = CodecVersion + 1
	if _, err := Decode(wrongVer); !errors.Is(err, frame.ErrVersion) {
		t.Errorf("version bump: got %v, want frame.ErrVersion", err)
	}

	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(flipped); !errors.Is(err, frame.ErrChecksum) && !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload flip: got %v, want frame.ErrChecksum or ErrCorrupt", err)
	}

	truncated := full[:len(full)-3]
	if _, err := Decode(truncated); !errors.Is(err, frame.ErrTruncated) {
		t.Errorf("truncation: got %v, want frame.ErrTruncated", err)
	}
}

// FuzzDecode asserts Decode never panics and never allocates unboundedly on
// arbitrary input, and that anything it accepts re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		b, err := Encode(randState(rand.New(rand.NewSource(seed))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add(format.Magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Encode(st)
		if err != nil {
			t.Fatalf("accepted state failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted input is not canonical")
		}
	})
}
