package ftl

// l2pTable is the logical-to-physical mapping: a dense slice indexed by LPN,
// one bounds-checked load per lookup, no hashing, no per-entry allocation.
// It covers exactly the device's page capacity; an LPN outside
// [0, capacity) is never mapped (Write rejects it, Read and Trim see it
// unmapped).
type l2pTable struct {
	dense []ppn // indexed by LPN; noPPN marks an unmapped entry
	count int
}

// newL2P sizes the table for a device with the given page capacity. The
// slice is allocated but not filled: reset empties the table before use.
func newL2P(capacity int64) *l2pTable {
	return &l2pTable{dense: make([]ppn, capacity)}
}

// reset unmaps everything, keeping the slice's backing array (refilled with
// noPPN in place) so a pooled table is reusable without reallocating.
func (t *l2pTable) reset() {
	for i := range t.dense {
		t.dense[i] = noPPN
	}
	t.count = 0
}

// inRange reports whether lpn falls inside the device's page capacity.
func (t *l2pTable) inRange(lpn LPN) bool {
	return lpn >= 0 && int64(lpn) < int64(len(t.dense))
}

// get returns the mapping for lpn, if any.
func (t *l2pTable) get(lpn LPN) (ppn, bool) {
	if !t.inRange(lpn) {
		return 0, false
	}
	p := t.dense[lpn]
	return p, p != noPPN
}

// set maps the in-range lpn to p, replacing any previous mapping.
func (t *l2pTable) set(lpn LPN, p ppn) {
	if t.dense[lpn] == noPPN {
		t.count++
	}
	t.dense[lpn] = p
}

// remove unmaps the in-range lpn; an unmapped LPN is a no-op.
func (t *l2pTable) remove(lpn LPN) {
	if t.dense[lpn] != noPPN {
		t.dense[lpn] = noPPN
		t.count--
	}
}

// len returns the number of mapped LPNs.
func (t *l2pTable) len() int { return t.count }
