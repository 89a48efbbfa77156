// Package frame is the one durable record format of the store directory:
// aged device snapshots, simulation result blobs and the farm's job
// journal are all framed, and checked, by this code alone.
//
// A file starts with a header naming its kind, then holds records:
//
//	header = magic [8]byte | version u32 LE
//	record = kind u8 | len u32 LE | payload | crc u64 LE
//	crc    = CRC64-ECMA over the kind byte and the payload
//
// A reader trusts nothing before it is checked: the magic and version
// before any record, each length against the bytes actually present, and
// each record's checksum before its payload is handed out. Every failure
// is one of four typed errors, so callers can fail soft (treat the file as
// a cache miss, or keep a log's good prefix) without parsing messages.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// headerSize and overhead are the fixed byte costs of a file header and of
// one record around its payload.
const (
	headerSize = 8 + 4
	overhead   = 1 + 4 + 8
)

// MaxPayload is the largest payload a record's u32 length can describe.
const MaxPayload = math.MaxUint32

// Typed failures. Each wraps into a more specific message; test with
// errors.Is.
var (
	// ErrMagic means the bytes do not start with the expected file magic.
	ErrMagic = errors.New("frame: bad magic")
	// ErrVersion means the file was written by a different format version.
	ErrVersion = errors.New("frame: version mismatch")
	// ErrChecksum means a record failed its CRC: flipped bits.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrTruncated means the bytes end inside a header or record, or run
	// past the end of a file that must hold exactly one record.
	ErrTruncated = errors.New("frame: truncated")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Format is one file kind: its magic and the version this build reads and
// writes.
type Format struct {
	Magic   [8]byte
	Version uint32
}

// AppendHeader appends the file header to dst.
func (f Format) AppendHeader(dst []byte) []byte {
	dst = append(dst, f.Magic[:]...)
	return binary.LittleEndian.AppendUint32(dst, f.Version)
}

// CheckHeader validates b's header and returns the bytes after it.
func (f Format) CheckHeader(b []byte) (rest []byte, err error) {
	if len(b) < len(f.Magic) || [8]byte(b[:8]) != f.Magic {
		return nil, ErrMagic
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != f.Version {
		return nil, fmt.Errorf("%w: file has v%d, reader is v%d", ErrVersion, v, f.Version)
	}
	return b[headerSize:], nil
}

// sealedKind is the record kind of a single-record file: the magic names
// what the payload is, so the kind carries no further meaning there.
const sealedKind = 0

// Seal returns a whole file holding exactly one record.
func (f Format) Seal(payload []byte) []byte {
	return AppendRecord(f.AppendHeader(make([]byte, 0, headerSize+overhead+len(payload))), sealedKind, payload)
}

// Open checks a file written by Seal and returns its payload, which
// aliases b.
func (f Format) Open(b []byte) ([]byte, error) {
	rest, err := f.CheckHeader(b)
	if err != nil {
		return nil, err
	}
	kind, payload, rest, err := NextRecord(rest)
	switch {
	case err != nil:
		return nil, err
	case kind != sealedKind:
		return nil, fmt.Errorf("%w: record kind %d in a single-record file", ErrMagic, kind)
	case len(rest) != 0:
		return nil, fmt.Errorf("%w: %d bytes after the record", ErrTruncated, len(rest))
	}
	return payload, nil
}

// AppendRecord appends one record to dst. The payload must not exceed
// MaxPayload bytes.
func AppendRecord(dst []byte, kind byte, payload []byte) []byte {
	if uint64(len(payload)) > MaxPayload {
		panic(fmt.Sprintf("frame: %d-byte payload exceeds MaxPayload", len(payload)))
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint64(dst, checksum(kind, payload))
}

// NextRecord reads the record at the start of b and returns it with the
// bytes after it. The payload aliases b. A stream reader stops at the
// first error: nothing after a bad record can be located with confidence.
func NextRecord(b []byte) (kind byte, payload, rest []byte, err error) {
	if len(b) < overhead {
		return 0, nil, nil, fmt.Errorf("%w: %d bytes left, a record needs %d", ErrTruncated, len(b), overhead)
	}
	kind = b[0]
	n := uint64(binary.LittleEndian.Uint32(b[1:5]))
	if n > uint64(len(b)-overhead) {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte payload, %d bytes left", ErrTruncated, n, len(b)-overhead)
	}
	payload = b[5 : 5+n]
	if binary.LittleEndian.Uint64(b[5+n:]) != checksum(kind, payload) {
		return 0, nil, nil, ErrChecksum
	}
	return kind, payload, b[overhead+n:], nil
}

func checksum(kind byte, payload []byte) uint64 {
	return crc64.Update(crc64.Update(0, crcTable, []byte{kind}), crcTable, payload)
}
