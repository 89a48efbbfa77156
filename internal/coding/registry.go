package coding

import (
	"fmt"
	"sort"
	"sync"
)

// Registry names of the built-in codes. These are the values accepted by the
// idasim -coding flag and the server's "coding" request field.
const (
	// CodeIDA is the paper's coding: binary-reflected Gray state map
	// (or the vendor 2-3-2 TLC variant) with the IDA merge rules.
	CodeIDA = "ida"
	// CodeRandIO is Sharon/Alrod random-I/O coding (arXiv 1202.6481):
	// a state map whose per-bit transition counts are balanced so no
	// page pays the full 2^(b-1) sensings of the Gray MSB.
	CodeRandIO = "randio"
	// CodeILWC is inverted limited-weight coding (arXiv 1907.02622):
	// the Gray map fed bit-biased data so fewer cells leave the erased
	// state, trading nothing in latency for lower program power.
	CodeILWC = "ilwc"
)

// DefaultCode is the code used when none is requested.
const DefaultCode = CodeIDA

// registry maps each built-in code name to its constructor for a given
// bits-per-cell geometry.
var registry = map[string]func(bits int) (*Scheme, error){
	CodeIDA: func(bits int) (*Scheme, error) { return NewGray(bits), nil },
	CodeRandIO: func(bits int) (*Scheme, error) {
		if bits > 4 {
			return nil, fmt.Errorf("coding: code %q supports 1..4 bits/cell, got %d", CodeRandIO, bits)
		}
		return NewRandIO(bits), nil
	},
	CodeILWC: func(bits int) (*Scheme, error) { return NewILWC(bits), nil },
}

// schemeKey identifies one built-in scheme.
type schemeKey struct {
	name string
	bits int
}

// shared holds each built-in scheme's one-time construction, filled on
// first use of its (name, bits).
var (
	sharedMu sync.Mutex
	shared   = map[schemeKey]func() (*Scheme, error){}
)

// New returns the named code for the given bits-per-cell. The name must be
// a built-in code and the bits must be in the code's supported range.
// Schemes are immutable, so every call for one (name, bits) returns the
// same shared scheme, built on first use; concurrent first uses build it
// once.
func New(name string, bits int) (*Scheme, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("coding: unknown code %q (known: %v)", name, Names())
	}
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("coding: code %q needs bits in [1,8], got %d", name, bits)
	}
	k := schemeKey{name, bits}
	sharedMu.Lock()
	build, ok := shared[k]
	if !ok {
		build = sync.OnceValues(func() (*Scheme, error) { return ctor(bits) })
		shared[k] = build
	}
	sharedMu.Unlock()
	return build()
}

// Default returns the default code for the given bits-per-cell.
func Default(bits int) *Scheme {
	c, err := New(DefaultCode, bits)
	if err != nil {
		panic("coding: building default code: " + err.Error())
	}
	return c
}

// Names lists the registered code names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
