package frame

import (
	"bytes"
	"errors"
	"testing"
)

var testFormat = Format{Magic: [8]byte{'F', 'R', 'A', 'M', 'E', 'T', 'S', 'T'}, Version: 3}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 100)} {
		b := testFormat.Seal(payload)
		if len(b) != headerSize+overhead+len(payload) {
			t.Fatalf("sealed %d bytes into %d", len(payload), len(b))
		}
		got, err := testFormat.Open(b)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Open = %q %v", got, err)
		}
	}
}

// TestReserveMatchesSeal checks that a file filled in place through
// Reserve and Finish is byte for byte the file Seal writes, and the file
// the record-stream encoder lays out, with no spare capacity.
func TestReserveMatchesSeal(t *testing.T) {
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, payload := range [][]byte{{}, []byte("x"), big} {
		file, window := testFormat.Reserve(len(payload))
		if len(window) != len(payload) {
			t.Fatalf("%d-byte reserve has a %d-byte window", len(payload), len(window))
		}
		copy(window, payload)
		got := Finish(file)
		if !bytes.Equal(got, testFormat.Seal(payload)) {
			t.Errorf("%d-byte payload: in-place file differs from Seal", len(payload))
		}
		if want := AppendRecord(testFormat.AppendHeader(nil), sealedKind, payload); !bytes.Equal(got, want) {
			t.Errorf("%d-byte payload: in-place file differs from the record layout", len(payload))
		}
		if len(got) != cap(got) {
			t.Errorf("%d-byte payload: file has len %d, cap %d", len(payload), len(got), cap(got))
		}
	}
}

// TestLayout pins the byte layout the job journal has always written:
// existing journals must stay readable without a version bump.
func TestLayout(t *testing.T) {
	b := AppendRecord(testFormat.AppendHeader(nil), 2, []byte("ab"))
	want := []byte{'F', 'R', 'A', 'M', 'E', 'T', 'S', 'T', 3, 0, 0, 0, 2, 2, 0, 0, 0, 'a', 'b'}
	if !bytes.Equal(b[:len(want)], want) || len(b) != len(want)+8 {
		t.Fatalf("layout % x", b)
	}
}

func TestErrorKinds(t *testing.T) {
	good := testFormat.Seal([]byte("hello"))
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrMagic},
		{"foreign", []byte(`{"value":1}`), ErrMagic},
		{"short header", good[:10], ErrTruncated},
		{"version", append(append([]byte(nil), good[:8]...), append([]byte{4, 0, 0, 0}, good[12:]...)...), ErrVersion},
		{"no record", good[:headerSize], ErrTruncated},
		{"torn payload", good[:len(good)-1], ErrTruncated},
		{"trailing", append(append([]byte(nil), good...), 0), ErrTruncated},
		{"flipped payload", flip(good, headerSize+6, 1), ErrChecksum},
		{"flipped kind", flip(good, headerSize, 2), ErrChecksum},
		{"stream record", AppendRecord(testFormat.AppendHeader(nil), 2, []byte("hello")), ErrMagic},
		{"flipped crc", flip(good, len(good)-1, 0x80), ErrChecksum},
	}
	for _, c := range cases {
		if _, err := testFormat.Open(c.b); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func flip(b []byte, at int, mask byte) []byte {
	out := append([]byte(nil), b...)
	out[at] ^= mask
	return out
}

// chunks splits data into up to four records' payloads.
func chunks(data []byte) [][]byte {
	var out [][]byte
	step := len(data)/4 + 1
	for len(data) > 0 {
		n := min(step, len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	return append(out, nil) // an empty record too
}

// FuzzFrame checks the codec on arbitrary bytes and on a valid stream with
// one corrupted byte:
//   - nothing panics;
//   - an accepted single-record file re-seals to the same bytes;
//   - every record a stream read accepts re-encodes to the bytes it spanned;
//   - reading a corrupted stream returns every record before the corrupted
//     byte, unchanged, then stops: no record spanning the flip is returned.
func FuzzFrame(f *testing.F) {
	sealed := testFormat.Seal([]byte(`{"value":12345678}`))
	f.Add(sealed, uint16(0), byte(1))
	f.Add(sealed, uint16(headerSize+1), byte(0x10))
	f.Add(sealed[:len(sealed)-3], uint16(len(sealed)-1), byte(0x80))
	f.Add([]byte{}, uint16(5), byte(0xff))
	f.Add(testFormat.Magic[:], uint16(9), byte(2))
	f.Add(bytes.Repeat([]byte{0xa5}, 64), uint16(40), byte(4))
	f.Fuzz(func(t *testing.T, data []byte, at uint16, mask byte) {
		if payload, err := testFormat.Open(data); err == nil {
			if !bytes.Equal(testFormat.Seal(payload), data) {
				t.Fatal("accepted file does not re-seal to the same bytes")
			}
		}
		if rest, err := testFormat.CheckHeader(data); err == nil {
			for len(rest) > 0 {
				kind, payload, next, err := NextRecord(rest)
				if err != nil {
					break
				}
				if span := rest[:len(rest)-len(next)]; !bytes.Equal(AppendRecord(nil, kind, payload), span) {
					t.Fatal("accepted record does not re-encode to its bytes")
				}
				rest = next
			}
		}

		// A valid stream built from data, with one byte corrupted.
		parts := chunks(data)
		stream := testFormat.AppendHeader(nil)
		var ends []int
		for i, p := range parts {
			stream = AppendRecord(stream, byte(i+1), p)
			ends = append(ends, len(stream))
		}
		pos := int(at) % len(stream)
		if mask == 0 {
			mask = 1
		}
		stream[pos] ^= mask
		rest, err := testFormat.CheckHeader(stream)
		if pos < headerSize {
			if err == nil {
				t.Fatalf("corrupted header byte %d accepted", pos)
			}
			return
		}
		if err != nil {
			t.Fatalf("intact header rejected: %v", err)
		}
		var got int
		for ; ; got++ {
			kind, payload, next, err := NextRecord(rest)
			if err != nil {
				break
			}
			end := len(stream) - len(next)
			if end > pos {
				t.Fatalf("record %d spans the corrupted byte %d (ends at %d)", got, pos, end)
			}
			if got >= len(parts) || kind != byte(got+1) || !bytes.Equal(payload, parts[got]) || end != ends[got] {
				t.Fatalf("record %d altered", got)
			}
			rest = next
		}
		want := 0
		for want < len(ends) && ends[want] <= pos {
			want++
		}
		if got != want {
			t.Fatalf("stream stopped after %d records, want %d (corruption at %d)", got, want, pos)
		}
	})
}
