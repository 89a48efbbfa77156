package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"idaflash"
)

// point is one simulation: a workload profile under a system.
type point struct {
	p   idaflash.Profile
	sys idaflash.System
}

// id names the point in digests.json and in check messages.
func (pt point) id() string {
	return fmt.Sprintf("%s@%d#%d/%s", pt.p.Name, pt.p.Requests, pt.p.Seed, pt.sys.Name)
}

func mustProfile(name string, requests int) idaflash.Profile {
	p, err := idaflash.ProfileByName(name, requests)
	if err != nil {
		panic(err) // names below are the repository's own profiles
	}
	return p
}

// digest is the SHA-256 of the canonical Results JSON: the bytes the
// service stores and serves for the point.
func digest(r idaflash.Results) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputs holds the first output of each point a workload ran, by point ID.
type outputs map[string]idaflash.Results

// check records a point's output and returns why it is wrong, if it is: a
// first output must match digests.json (when the run uses the seed and
// scale the digests were taken at), and a repeat must equal the first.
func (o outputs) check(e *env, pt point, s idaflash.Results) string {
	id := pt.id()
	prev, seen := o[id]
	if seen {
		if prev != s {
			return fmt.Sprintf("%s: output differs from the point's first run", id)
		}
		return ""
	}
	o[id] = s
	if want, ok := e.digests[id]; ok {
		if got := digest(s); got != want {
			return fmt.Sprintf("%s: results digest %s, digests.json has %s", id, got[:12], want[:12])
		}
	}
	return ""
}

// gain is IDA-E20's mean read response gain over Baseline in simulated
// time, pooled over the points' first outputs: 100 × (1 − ΣIDA-E20 /
// ΣBaseline).
func (o outputs) gain(pts []point) float64 {
	var base, ida float64
	for _, pt := range pts {
		r := float64(o[pt.id()].MeanReadResponse)
		switch {
		case !pt.sys.IDA:
			base += r
		case pt.sys.Name == "IDA-E20":
			ida += r
		}
	}
	if base == 0 {
		return 0
	}
	return 100 * (1 - ida/base)
}

// verify recomputes the points in-process on the reference path (no
// snapshot reuse, no device pool) and compares them with their first
// outputs.
func (o outputs) verify(e *env, pts []point) {
	for _, pt := range pts {
		ref := pt.sys
		ref.NoSnapshot, ref.NoPool = true, true
		r, err := idaflash.RunWorkload(pt.p, ref)
		switch {
		case err != nil:
			e.chk.op(fmt.Sprintf("reference %s: %v", pt.id(), err))
		case r.Scalars() != o[pt.id()]:
			e.chk.op(fmt.Sprintf("reference %s: output differs from the one measured", pt.id()))
		default:
			e.chk.op("")
		}
	}
}

// seedSample returns up to n of the points, chosen by the seed.
func seedSample(seed int64, pts []point, n int) []point {
	out := append([]point(nil), pts...)
	rng := rand.New(rand.NewSource(splitmix(seed, 99)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(n, len(out))]
}

// digestSeed is the seed digests.json was taken at.
const digestSeed = 1

//go:embed testdata/digests.json
var digestsJSON []byte

// loadDigests returns the committed output digests, or nil when the run's
// inputs differ from the ones they were taken from (another seed, or the
// smoke test's shrunken scale); such runs check repeats and a reference
// recomputation instead.
func loadDigests(seed int64, quick bool) (map[string]string, error) {
	if seed != digestSeed || quick {
		return nil, nil
	}
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("decoding testdata/digests.json: %w", err)
	}
	return m, nil
}

// digestPoints lists every point digests.json covers: each warm-read setup
// set, cold-write's set-up points and first 1000 operations, and the
// Figure 8 sweep (which the seed only reorders). serve-mixed's hot set is
// part of the sweep.
func digestPoints() []point {
	e := &env{seed: digestSeed}
	sc := scaleOf(e)
	var pts []point
	for r := 0; r < sc.repeats; r++ {
		pts = append(pts, warmSet(digestSeed, r, sc)...)
	}
	for i := -sc.repeats; i < 1000; i++ {
		pts = append(pts, coldPoint(digestSeed, i, sc))
	}
	return append(pts, fig8Points(serverRequests)...)
}

// digestsCmd regenerates digests.json on the reference path (no snapshot
// reuse, no device pool), independently of the paths the workloads take.
func digestsCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("digests", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "testdata/digests.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m := map[string]string{}
	for _, pt := range digestPoints() {
		ref := pt.sys
		ref.NoSnapshot, ref.NoPool = true, true
		r, err := idaflash.RunWorkload(pt.p, ref)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", pt.id(), err)
			return 1
		}
		m[pt.id()] = digest(r.Scalars())
	}
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d digests to %s\n", len(m), *out)
	return 0
}
