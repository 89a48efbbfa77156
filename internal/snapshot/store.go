package snapshot

import "idaflash/internal/results"

// defaultStoreLimit bounds the in-memory tier. A captured state is a few
// hundred KB for the experiment-scale devices; the paper's sweeps touch ~20
// distinct profiles (a handful of array variants each), so 64 keeps every
// realistic sweep resident.
const defaultStoreLimit = 64

// Store caches aged device states by an opaque caller-built key (the
// facade's normalized-profile + device-shape key): the store directory's
// two-tier cache over this package's codec. The facade attaches the shared
// blob root's ".snap" tier, so snapshots and result payloads split one
// eviction budget. A run that misses claims the key, runs the aging phases,
// and publishes the state at the measurement boundary; every failure mode —
// corrupt blob, version skew, cancelled compute — degrades to a miss, never
// an error for the run.
type Store = results.Cache[*DeviceState]

// Claim is a Store miss's obligation to publish the aged state or abandon.
type Claim = results.Claim[*DeviceState]

// NewStore builds a store holding at most limit states in memory (<= 0 uses
// the default of 64).
func NewStore(limit int) *Store {
	if limit <= 0 {
		limit = defaultStoreLimit
	}
	return results.NewCache(limit, Encode, Decode)
}
