package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at the -quick scale for one second, traced,
// and checks that the run prints every metric BENCHMARK.json names, with
// its unit, and that no output check fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds idaserver and runs every workload")
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "idaserver")
	build := exec.Command("go", "build", "-o", server, "./cmd/idaserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building idaserver: %v\n%s", err, out)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", w.name, "-seconds", "1", "-trace", "1", "-quick",
			"-server", server, "-workdir", dir, "-spans", filepath.Join(dir, "spans.json")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.name, code, stderr.String())
		}
		out := stdout.String()
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if !re.MatchString(out) {
				t.Errorf("%s: no line for %s in %s", w.name, m.Name, m.Unit)
			}
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res resultObject
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: traced result has %d metrics, BENCHMARK.json names %d per-layer ones", w.name, len(res.Metrics), len(spec.PerLayer))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "spans.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}
}

// TestDigestsCoverWorkloadPoints checks that the point IDs the workloads
// use at the default seed are the ones digests.json holds, so the digest
// checks cannot pass by finding nothing to compare.
func TestDigestsCoverWorkloadPoints(t *testing.T) {
	digests, err := loadDigests(digestSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: digestSeed, sp: &speedometer{}}
	pts := digestPoints()
	pts = append(pts, newServeMixed(e).(*serveMixed).hot...)
	pts = append(pts, newWarmRead(e).(*inproc).warm...)
	cold := newColdWrite(e).(*inproc)
	for i := 0; i < 1000; i++ {
		pts = append(pts, cold.pointAt(i))
	}
	for _, pt := range pts {
		if _, ok := digests[pt.id()]; !ok {
			t.Errorf("digests.json has no entry for %s", pt.id())
		}
	}
	if len(digests) != len(digestPoints()) {
		t.Errorf("digests.json has %d entries, the workloads define %d points", len(digests), len(digestPoints()))
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the definition the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{50, 150, 100, 60, 140, 100, 70, 130, 100, 100}
	for _, c := range []struct {
		name       string
		base, head []float64
		lower      bool
		want       string
	}{
		{"same", base, base, true, "within bound"},
		{"slower", base, slower, true, "REGRESSION"},
		{"faster", base, faster, true, "gain"},
		{"higher-is-better drop", base, faster, false, "REGRESSION"},
		{"noisy base", noisy, slower, true, "unresolved"},
		{"noisy base, every head run better", noisy, []float64{10, 11, 12}, true, "better in every run"},
	} {
		if got := judge(c.base, c.head, c.lower, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
