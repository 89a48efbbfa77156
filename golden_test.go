package idaflash_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"idaflash"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/default_path_golden.json from the current code")

// goldenRun is the refactor-stable subset of one run's measurements: every
// field below existed before the coding-scheme refactor, so the golden file
// captured against the pre-refactor tree proves the default IDA path still
// computes exactly the same simulation, event for event, even as Results
// grows new fields around it.
type goldenRun struct {
	System              string
	Coding              string
	ReadRequests        uint64
	WriteRequests       uint64
	MeanReadResponseNs  int64
	P99ReadResponseNs   int64
	MeanWriteResponseNs int64
	MakespanNs          int64
	Events              uint64
	WriteAmplification  float64

	HostReads     uint64
	HostWrites    uint64
	Invalidations uint64
	Erases        uint64
	ReadsByClass  [5]uint64
	ReadsBySenses [9]uint64
	ReadsFromIDA  uint64
	GCJobs        uint64
	GCMoves       uint64

	Refreshes          uint64
	RefreshMoves       uint64
	IDARefreshes       uint64
	IDAAdjustedWLs     uint64
	IDAVerifyReads     uint64
	IDACorruptedWrites uint64
	IDAKeptPages       uint64

	ProgramPower    float64
	ProgrammedCells float64
}

func goldenFromResults(sys string, r idaflash.Results) goldenRun {
	g := goldenRun{
		System:              sys,
		Coding:              r.Coding,
		ReadRequests:        r.ReadRequests,
		WriteRequests:       r.WriteRequests,
		MeanReadResponseNs:  r.MeanReadResponse.Nanoseconds(),
		P99ReadResponseNs:   r.P99ReadResponse.Nanoseconds(),
		MeanWriteResponseNs: r.MeanWriteResponse.Nanoseconds(),
		MakespanNs:          r.Makespan.Nanoseconds(),
		Events:              r.Events,
		WriteAmplification:  r.WriteAmplification,
		HostReads:           r.FTL.HostReads,
		HostWrites:          r.FTL.HostWrites,
		Invalidations:       r.FTL.Invalidations,
		Erases:              r.FTL.Erases,
		ReadsFromIDA:        r.FTL.ReadsFromIDA,
		GCJobs:              r.FTL.GCJobs,
		GCMoves:             r.FTL.GCMoves,
		Refreshes:           r.FTL.Refreshes,
		RefreshMoves:        r.FTL.RefreshMoves,
		IDARefreshes:        r.FTL.IDARefreshes,
		IDAAdjustedWLs:      r.FTL.IDAAdjustedWLs,
		IDAVerifyReads:      r.FTL.IDAVerifyReads,
		IDACorruptedWrites:  r.FTL.IDACorruptedWrites,
		IDAKeptPages:        r.FTL.IDAKeptPages,
		ProgramPower:        r.FTL.ProgramPower,
		ProgrammedCells:     r.FTL.ProgrammedCells,
	}
	copy(g.ReadsByClass[:], r.FTL.ReadsByClass[:])
	copy(g.ReadsBySenses[:], r.FTL.ReadsBySenses[:])
	return g
}

// goldenSystems are the default-path configurations frozen by the golden:
// the baseline, the paper's headline IDA-E20, IDA on the vendor 2-3-2
// coding (the alternative state map that must also survive the refactor),
// and IDA under the two other registered codings, random-I/O (its own
// state map) and inverted limited-weight coding (the Gray map with its own
// program cost).
func goldenSystems() []idaflash.System {
	v := idaflash.IDA(0.20)
	v.Name = "IDA-E20-232"
	v.Vendor232 = true
	systems := []idaflash.System{idaflash.Baseline(), idaflash.IDA(0.20), v}
	for _, c := range []string{idaflash.CodingILWC, idaflash.CodingRandIO} {
		s := idaflash.IDA(0.20)
		s.Name = "IDA-E20-" + c
		s.Coding = c
		systems = append(systems, s)
	}
	return systems
}

// TestDefaultPathGolden replays a small deterministic workload under the
// frozen configurations and compares every pre-refactor measurement against
// testdata/default_path_golden.json, captured before the coding-scheme
// refactor. A mismatch means the default IDA path no longer produces
// byte-identical simulations.
func TestDefaultPathGolden(t *testing.T) {
	p, err := idaflash.ProfileByName("hm_1", 3000)
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenRun
	for _, sys := range goldenSystems() {
		res, err := idaflash.RunWorkload(p, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		got = append(got, goldenFromResults(sys.Name, res))
	}

	path := filepath.Join("testdata", "default_path_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d runs, got %d", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from the pre-refactor golden:\ngot  %+v\nwant %+v", got[i].System, got[i], want[i])
		}
	}
}
