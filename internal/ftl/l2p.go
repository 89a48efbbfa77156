package ftl

// l2pTable is the logical-to-physical mapping. LPNs inside the device's
// page capacity resolve through a dense slice — one bounds-checked load per
// lookup, no hashing, no per-entry allocation — while out-of-range LPNs
// (tests and tools may address beyond capacity) fall back to a sparse map so
// the FTL stays correct for arbitrary inputs. The simulation hot path
// (reads, writes, relocations) only ever touches the dense side: the SSD
// model rejects traces whose footprint exceeds capacity before replay.
type l2pTable struct {
	dense  []ppn // indexed by LPN; noPPN marks an unmapped entry
	sparse map[LPN]ppn
	count  int
}

// maxDenseL2PEntries caps the dense side at 16M pages (128 MB of table, a
// 128 GB device at 8 KB pages). Larger devices degrade gracefully to the
// sparse map rather than pinning gigabytes of mostly-empty table.
const maxDenseL2PEntries = 1 << 24

// newL2P sizes the table for a device with the given page capacity. A
// non-positive or over-cap capacity yields a pure sparse table. The dense
// side is allocated but not filled: reset empties the table before use.
func newL2P(capacity int64) *l2pTable {
	t := &l2pTable{}
	if capacity > 0 && capacity <= maxDenseL2PEntries {
		t.dense = make([]ppn, capacity)
	}
	return t
}

// reset unmaps everything, keeping the dense slice's backing array (refilled
// with noPPN in place) so a pooled table is reusable without reallocating.
// The sparse side is dropped: it only ever holds out-of-capacity entries.
func (t *l2pTable) reset() {
	for i := range t.dense {
		t.dense[i] = noPPN
	}
	t.sparse = nil
	t.count = 0
}

// get returns the mapping for lpn, if any.
func (t *l2pTable) get(lpn LPN) (ppn, bool) {
	if lpn >= 0 && int64(lpn) < int64(len(t.dense)) {
		p := t.dense[lpn]
		return p, p != noPPN
	}
	p, ok := t.sparse[lpn]
	return p, ok
}

// set maps lpn to p, replacing any previous mapping.
func (t *l2pTable) set(lpn LPN, p ppn) {
	if lpn >= 0 && int64(lpn) < int64(len(t.dense)) {
		if t.dense[lpn] == noPPN {
			t.count++
		}
		t.dense[lpn] = p
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[LPN]ppn)
	}
	if _, ok := t.sparse[lpn]; !ok {
		t.count++
	}
	t.sparse[lpn] = p
}

// remove unmaps lpn; unmapped LPNs are a no-op.
func (t *l2pTable) remove(lpn LPN) {
	if lpn >= 0 && int64(lpn) < int64(len(t.dense)) {
		if t.dense[lpn] != noPPN {
			t.dense[lpn] = noPPN
			t.count--
		}
		return
	}
	if _, ok := t.sparse[lpn]; ok {
		delete(t.sparse, lpn)
		t.count--
	}
}

// len returns the number of mapped LPNs.
func (t *l2pTable) len() int { return t.count }
