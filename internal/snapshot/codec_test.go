package snapshot

import (
	"bytes"
	"errors"
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
// entries, a full L2P table, and every flag combination the codec packs.
func randState(rng *rand.Rand) *DeviceState {
	g := flash.Geometry{
		Channels: 1 + rng.Intn(2), ChipsPerChannel: 1, DiesPerChip: 1,
		PlanesPerDie: 1 + rng.Intn(2), BlocksPerPlane: 2 + rng.Intn(6),
		WordlinesPerBlock: 2 + rng.Intn(4), PageSizeBytes: 8192,
		BitsPerCell: 3,
	}
	pages := g.WordlinesPerBlock * g.BitsPerCell
	st := &ftl.State{Geometry: g, AllocCursor: rng.Intn(16)}
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
