package experiments

import (
	"encoding/json"
	"fmt"

	"idaflash"
	"idaflash/internal/workload"
)

// KeyVersion versions the canonical memo-key schema. It is embedded in
// every key, so bumping it changes every key's content address and stale
// disk entries — written under an older schema whose fields meant something
// else — read as misses instead of being served as current results. Bump it
// whenever the schema changes meaning: a Profile or System field is added,
// removed, or reinterpreted, or the payload a key points at (the canonical
// Results JSON) changes shape incompatibly.
const KeyVersion = 1

// Key builds the canonical, versioned cache key for one (profile, system)
// simulation point. It is the contract behind every cache layer the point
// flows through: the in-memory experiments memo, the server's result store,
// and the content-addressed disk store that survives restarts.
//
// Canonical means two requests describing the same simulation produce the
// same bytes: the profile is normalized first (derived fields filled, so a
// sparse profile and its default-filled form share one key), and both
// structs are marshaled by encoding/json in declaration order (so the field
// order of whatever wire JSON the values came from cannot leak in). A
// profile that fails normalization is keyed in its raw form — deterministic
// and collision-free, just without the sparse ≡ filled unification —
// because memoization and the singleflight on top of it must not depend on
// validity; the run itself reports the real error. An empty System.Coding
// or System.Scheduler is keyed as the default it selects (CodingIDA,
// SchedReadFirst), and a BitsPerCell of 3 or a Devices of 1 as the zero
// value that selects the same device, so a named sweep's idaflash.IDA(e)
// and the server's explicitly spelled system share one key. An encoding
// failure is returned rather than panicked; callers fall back to an
// uncached execution.
func Key(p workload.Profile, sys idaflash.System) (string, error) {
	np, err := p.Normalize()
	if err != nil {
		np = p
	}
	if sys.Coding == "" {
		sys.Coding = idaflash.CodingIDA
	}
	if sys.Scheduler == "" {
		sys.Scheduler = idaflash.SchedReadFirst
	}
	if sys.BitsPerCell == 3 {
		sys.BitsPerCell = 0
	}
	if sys.Devices == 1 {
		sys.Devices = 0
	}
	b, err := json.Marshal(struct {
		V int
		P workload.Profile
		S idaflash.System
	}{KeyVersion, np, sys})
	if err != nil {
		return "", fmt.Errorf("experiments: encoding cache key: %w", err)
	}
	return string(b), nil
}
