package experiments

import (
	"fmt"
	"sort"

	"idaflash"
	"idaflash/internal/workload"
)

// Point is one (profile, system) simulation of a sweep — the unit the
// batch endpoint accepts, the farm shards across workers, and the result
// store keys (see Key).
type Point struct {
	Profile workload.Profile `json:"profile"`
	System  idaflash.System  `json:"system"`
}

// sweeps maps the named whole-experiment sweeps the batch API accepts onto
// their system lists. Each named sweep is exactly the point set its table
// counterpart runs, so a batch warm-up makes the corresponding experiment
// (Figure8, Figure9, CodingComparison) free.
var sweeps = map[string]func() []idaflash.System{
	"figure8":     figure8Systems,
	"sensitivity": sensitivitySystems,
	"cmp":         codingLabSystems,
}

// SweepNames lists the named sweeps, sorted.
func SweepNames() []string {
	names := make([]string, 0, len(sweeps))
	for name := range sweeps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Sweep enumerates a named experiment as its explicit point list: every
// paper profile (at the given request budget) crossed with the experiment's
// system set.
func Sweep(name string, requests int) ([]Point, error) {
	mk, ok := sweeps[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown sweep %q (known: %v)", name, SweepNames())
	}
	return crossProduct(workload.PaperProfiles(requests), mk()), nil
}
