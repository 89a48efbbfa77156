package workload

import (
	"fmt"
	"slices"
)

// PaperTableIII holds, for each of the paper's eleven MSR Cambridge
// workloads, the published characteristics the synthetic profiles are
// matched to (Table III): read request ratio (%), mean read size (KB), read
// data ratio (%), and the fraction of MSB reads whose associated LSB/CSB
// pages are invalid (%).
var PaperTableIII = []struct {
	Name          string
	ReadRatioPct  float64
	ReadSizeKB    float64
	ReadDataPct   float64
	InvalidMSBPct float64
}{
	{"proj_1", 89.43, 37.45, 96.71, 22.12},
	{"proj_2", 87.61, 41.64, 85.77, 32.47},
	{"proj_3", 94.82, 8.99, 87.41, 20.81},
	{"proj_4", 98.52, 23.72, 99.30, 24.63},
	{"hm_1", 95.34, 14.93, 93.83, 20.54},
	{"src1_0", 56.43, 36.47, 47.42, 33.31},
	{"src1_1", 95.26, 35.87, 98.00, 34.79},
	{"src2_0", 97.86, 60.32, 99.51, 21.27},
	{"stg_1", 63.74, 59.68, 92.99, 38.76},
	{"usr_1", 91.48, 52.72, 97.37, 45.44},
	{"usr_2", 81.13, 50.89, 94.01, 21.43},
}

// paperProfiles and extraProfiles are the profile templates, built once:
// every field but Requests, which each caller fills in on its own copy.
// Nothing writes to them after init.
var (
	paperProfiles = buildPaperProfiles()
	extraProfiles = buildExtraProfiles()
)

func buildPaperProfiles() []Profile {
	out := make([]Profile, 0, len(PaperTableIII))
	for i, w := range PaperTableIII {
		out = append(out, Profile{
			Name:             w.Name,
			ReadRatio:        w.ReadRatioPct / 100,
			MeanReadKB:       w.ReadSizeKB,
			ReadDataRatio:    w.ReadDataPct / 100,
			TargetInvalidMSB: w.InvalidMSBPct / 100,
			Seed:             int64(1000 + i),
		})
	}
	return out
}

func buildExtraProfiles() []Profile {
	ratios := []float64{0.97, 0.93, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60}
	out := make([]Profile, 0, len(ratios))
	for i, rr := range ratios {
		out = append(out, Profile{
			Name:             fmt.Sprintf("rr%02d", int(rr*100)),
			ReadRatio:        rr,
			MeanReadKB:       32,
			ReadDataRatio:    rr, // data mix tracks the request mix
			TargetInvalidMSB: 0.20 + 0.02*float64(i%5),
			Seed:             int64(2000 + i),
		})
	}
	return out
}

// withRequests returns a copy of the templates with the request budget set.
func withRequests(templates []Profile, requests int) []Profile {
	out := slices.Clone(templates)
	for i := range out {
		out[i].Requests = requests
	}
	return out
}

// PaperProfiles returns the eleven synthetic profiles standing in for the
// paper's workloads, with the given request budget per trace (0 uses the
// default). Each profile embeds its Table III targets.
func PaperProfiles(requests int) []Profile { return withRequests(paperProfiles, requests) }

// ExtraProfiles returns the nine additional workloads of Figure 4 (right),
// categorized by read ratio as in the paper: three groups of three, from
// very read-heavy to mixed.
func ExtraProfiles(requests int) []Profile { return withRequests(extraProfiles, requests) }

// ProfileByName finds a paper or extra profile by name. It reads the
// templates in place and allocates nothing for a known name.
func ProfileByName(name string, requests int) (Profile, error) {
	for _, templates := range [...][]Profile{paperProfiles, extraProfiles} {
		for i := range templates {
			if templates[i].Name == name {
				p := templates[i]
				p.Requests = requests
				return p, nil
			}
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// ProfileNames lists the names of the paper profiles.
func ProfileNames() []string {
	names := make([]string, 0, len(PaperTableIII))
	for _, w := range PaperTableIII {
		names = append(names, w.Name)
	}
	return names
}
