// Package snapshot serializes and restores aged device state so experiment
// sweeps pay for the aging preamble once per profile instead of once per
// (profile, system) point. A DeviceState captures what the zero-time aging
// phases of ssd.Run leave behind at the aging boundary — the FTL's L2P
// table, block table (populations, wear counters, ages, flags), free lists
// and active blocks, wordline masks and reverse map, and the fault
// injector's stream position — behind a deterministic binary codec framed by
// internal/frame (magic, version, length, CRC64), and a Store that is the
// store directory's two-tier cache (internal/results.Cache): a bounded
// memory tier plus an optional content-addressed blob tier. Corruption,
// truncation, and version skew all fail soft: a bad snapshot is a cache
// miss, never a failed run.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"idaflash/internal/flash"
	"idaflash/internal/frame"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
)

// CodecVersion is the on-disk format version. Bump it whenever the framing,
// the payload layout or the meaning of any captured field changes; the
// Store treats a version mismatch as a miss, and callers fold the version
// into their cache keys so stale fixture directories invalidate themselves.
const CodecVersion = 5

// format frames snapshot files: the "IDASNAP\0" magic rejects arbitrary
// bytes before any length field is trusted, and the record checksum covers
// the whole payload.
var format = frame.Format{Magic: [8]byte{'I', 'D', 'A', 'S', 'N', 'A', 'P', 0}, Version: CodecVersion}

// ErrCorrupt means a payload that passed its checksum was structurally
// invalid (impossible lengths, trailing bytes). Framing failures — bad
// magic, version skew, checksum, truncation — are the frame package's typed
// errors. All of them mean "treat as a cache miss".
var ErrCorrupt = errors.New("snapshot: corrupt payload")

// DeviceState is one device's aged pre-measurement state: the FTL state at
// the snapshot boundary plus the fault injector's random-stream position
// (the only non-FTL state the zero-time phases consume).
type DeviceState struct {
	FTL           *ftl.State
	InjectorDraws uint64
}

// Encode serializes the state as a single-record frame file. The encoding
// is deterministic: identical states produce identical bytes. Every field
// is fixed-width, so the payload's size follows from the state's slice
// lengths: Encode allocates the whole file once, at its exact size, and
// encodes straight into it.
func Encode(st *DeviceState) ([]byte, error) {
	if st == nil || st.FTL == nil {
		return nil, fmt.Errorf("snapshot: encode of nil state")
	}
	n := payloadSize(st.FTL)
	if uint64(n) > frame.MaxPayload {
		return nil, fmt.Errorf("snapshot: %d-byte state exceeds the frame limit", n)
	}
	file, payload := format.Reserve(n)
	e := encoder{buf: payload[:0]}
	e.ftlState(st.FTL)
	e.u64(st.InjectorDraws)
	if len(e.buf) != n || cap(e.buf) != n {
		// The fields and payloadSize disagree: a bug, never bad input.
		return nil, fmt.Errorf("snapshot: encoded %d bytes into a %d-byte payload", len(e.buf), n)
	}
	return frame.Finish(file), nil
}

// Encoded sizes of the fixed-width records inside the payload. The decoder
// uses them too, as the least bytes a counted element can take.
const (
	geometryBytes = 8 * 8
	planeBytes    = 8 + 8   // active, free-list length
	blockBytes    = 5*8 + 1 // five counters and the flags
)

// payloadSize is the exact encoded size of a state whose FTL part is st:
// the fields ftlState and Encode write, counted from the slice lengths.
func payloadSize(st *ftl.State) int {
	n := geometryBytes + 8 + 4*len(st.DenseL2P) + 8 + 8
	n += 8
	for _, ps := range st.Planes {
		n += planeBytes + 8*len(ps.Free)
	}
	n += 8 + blockBytes*len(st.Blocks)
	n += 8 + len(st.WLValid) + 8 + len(st.WLKeep) + 8 + 4*len(st.RMap)
	return n + 8 // the injector's draws
}

// Decode parses bytes produced by Encode. It never panics on arbitrary
// input: the frame is checked (magic, version, length, checksum) before the
// payload is parsed, and every length inside it is validated against the
// remaining payload before any allocation.
func Decode(b []byte) (*DeviceState, error) {
	payload, err := format.Open(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	d := decoder{b: payload}
	st := &DeviceState{FTL: d.ftlState()}
	st.InjectorDraws = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return st, nil
}

// encoder appends fixed-width little-endian fields to a buffer.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }

func (e *encoder) geometry(g flash.Geometry) {
	e.i64(int64(g.Channels))
	e.i64(int64(g.ChipsPerChannel))
	e.i64(int64(g.DiesPerChip))
	e.i64(int64(g.PlanesPerDie))
	e.i64(int64(g.BlocksPerPlane))
	e.i64(int64(g.WordlinesPerBlock))
	e.i64(int64(g.PageSizeBytes))
	e.i64(int64(g.BitsPerCell))
}

func (e *encoder) ftlState(st *ftl.State) {
	e.geometry(st.Geometry)

	e.u64(uint64(len(st.DenseL2P)))
	for _, v := range st.DenseL2P {
		e.u32(v)
	}
	e.i64(int64(st.L2PCount))
	e.i64(int64(st.AllocCursor))

	e.u64(uint64(len(st.Planes)))
	for _, ps := range st.Planes {
		e.i64(int64(ps.Active))
		e.u64(uint64(len(ps.Free)))
		for _, idx := range ps.Free {
			e.i64(int64(idx))
		}
	}

	e.u64(uint64(len(st.Blocks)))
	for _, bs := range st.Blocks {
		e.i64(int64(bs.EraseCount))
		e.i64(int64(bs.OpenedAt))
		e.i64(int64(bs.ProgrammedAt))
		e.i64(int64(bs.NextStep))
		e.i64(int64(bs.ValidCount))
		var flags uint8
		if bs.IDA {
			flags |= 1
		}
		if bs.Refreshed {
			flags |= 2
		}
		if bs.Bad {
			flags |= 4
		}
		if bs.Retired {
			flags |= 8
		}
		e.u8(flags)
	}
	e.u64(uint64(len(st.WLValid)))
	e.buf = append(e.buf, st.WLValid...)
	e.u64(uint64(len(st.WLKeep)))
	e.buf = append(e.buf, st.WLKeep...)
	e.u64(uint64(len(st.RMap)))
	for _, lpn := range st.RMap {
		e.u32(lpn)
	}
}

// decoder reads the encoder's fields back, tracking the first error and
// refusing any length that cannot fit in the remaining payload. After an
// error every read returns a zero value, so call sites need no per-field
// checks; Decode inspects d.err once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// need reserves n bytes, failing the decode if they are not there.
func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated at offset %d (need %d bytes)", d.off, n)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64    { return int64(d.u64()) }
func (d *decoder) intField() int { return int(d.i64()) }

// count reads a length prefix for elements of at least elemSize bytes and
// validates it against the remaining payload, so a corrupt length cannot
// trigger a giant allocation.
func (d *decoder) count(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off)/uint64(elemSize) {
		d.fail("length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (d *decoder) geometry() flash.Geometry {
	return flash.Geometry{
		Channels:          d.intField(),
		ChipsPerChannel:   d.intField(),
		DiesPerChip:       d.intField(),
		PlanesPerDie:      d.intField(),
		BlocksPerPlane:    d.intField(),
		WordlinesPerBlock: d.intField(),
		PageSizeBytes:     d.intField(),
		BitsPerCell:       d.intField(),
	}
}

func (d *decoder) ftlState() *ftl.State {
	st := &ftl.State{}
	st.Geometry = d.geometry()

	st.DenseL2P = make([]uint32, d.count(4))
	for i := range st.DenseL2P {
		st.DenseL2P[i] = d.u32()
	}
	st.L2PCount = d.intField()
	st.AllocCursor = d.intField()

	planes := d.count(planeBytes)
	st.Planes = make([]ftl.PlaneState, 0, planes)
	for pl := 0; pl < planes && d.err == nil; pl++ {
		var ps ftl.PlaneState
		ps.Active = d.intField()
		// Zero-length slices decode as nil so a decoded state is
		// byte-for-byte re-encodable and deep-equal to its source.
		if nFree := d.count(8); nFree > 0 {
			ps.Free = make([]int, nFree)
			for i := range ps.Free {
				ps.Free[i] = d.intField()
			}
		}
		st.Planes = append(st.Planes, ps)
	}

	if nBlocks := d.count(blockBytes); nBlocks > 0 {
		st.Blocks = make([]ftl.BlockState, nBlocks)
		for i := range st.Blocks {
			bs := &st.Blocks[i]
			bs.EraseCount = d.intField()
			bs.OpenedAt = sim.Time(d.i64())
			bs.ProgrammedAt = sim.Time(d.i64())
			bs.NextStep = d.intField()
			bs.ValidCount = d.intField()
			flags := d.u8()
			bs.IDA = flags&1 != 0
			bs.Refreshed = flags&2 != 0
			bs.Bad = flags&4 != 0
			bs.Retired = flags&8 != 0
		}
	}
	st.WLValid = d.bytes(d.count(1))
	st.WLKeep = d.bytes(d.count(1))
	if nRMap := d.count(4); nRMap > 0 {
		st.RMap = make([]uint32, nRMap)
		for i := range st.RMap {
			st.RMap[i] = d.u32()
		}
	}
	return st
}

// bytes copies the next n payload bytes out; zero bytes decode as nil.
func (d *decoder) bytes(n int) []byte {
	if n == 0 || !d.need(n) {
		return nil
	}
	out := append([]byte(nil), d.b[d.off:d.off+n]...)
	d.off += n
	return out
}
