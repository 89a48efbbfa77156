package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareCmd judges a head set of untraced runs against a base set, one row
// per workload and end-to-end metric, by the rule every performance change
// in this repository is held to:
//
//   - unresolved: the base runs' own spread (interquartile range over
//     median) exceeds the metric's bound, unless every head run reads
//     better than every base run;
//   - regression: the head median is worse than the base median by more
//     than the bound;
//   - gain: at least ten paired runs, head wins at least nine tenths of
//     the pairs (ties count for neither), and the medians differ by more
//     than the base's interquartile range;
//   - otherwise the metric holds within its bound.
//
// It exits 1 when any row is a regression.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	head, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	regressions := 0
	fmt.Fprintf(stdout, "%-12s %-18s %5s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "runs", "base_median", "head_median", "worse%", "spread%", "bound%", "verdict")
	for _, wl := range workloads {
		bw, hw := base[wl.name], head[wl.name]
		if len(bw) == 0 || len(hw) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, hv := values(bw, m.Name), values(hw, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			lower := m.Better == "lower"
			v := judge(bv, hv, lower, m.Bound)
			if v.verdict == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %2d/%-2d %14.6g %14.6g %8.2f %8.2f %8.1f  %s\n",
				wl.name, m.Name, len(bv), len(hv), median(bv), median(hv),
				100*v.worse, 100*v.spread, 100*m.Bound, v.verdict)
		}
	}
	for name, runs := range head {
		for _, r := range runs {
			if !r.Correct {
				fmt.Fprintf(stdout, "head run of %s at seed %d failed %d checks\n", name, r.Seed, r.Failed)
				regressions++
			}
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

type judgement struct {
	worse, spread float64
	verdict       string
}

// judge applies the rule compareCmd documents to one metric's two samples.
func judge(base, head []float64, lower bool, bound float64) judgement {
	bm, hm := median(base), median(head)
	q1, q3 := quartiles(base)
	var j judgement
	if bm != 0 {
		j.spread = (q3 - q1) / math.Abs(bm)
		j.worse = (hm - bm) / math.Abs(bm)
		if !lower {
			j.worse = -j.worse
		}
	}
	better := func(h, b float64) bool { return (lower && h < b) || (!lower && h > b) }
	everyBetter := true
	for _, h := range head {
		for _, b := range base {
			everyBetter = everyBetter && better(h, b)
		}
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	switch {
	case j.spread > bound && everyBetter:
		j.verdict = "better in every run"
	case j.spread > bound:
		j.verdict = "unresolved"
	case j.worse > bound:
		j.verdict = "REGRESSION"
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(hm-bm) > q3-q1 && better(hm, bm):
		j.verdict = "gain"
	default:
		j.verdict = "within bound"
	}
	return j
}

// readRuns loads the untraced runs of a -json file, by workload, in file
// order.
func readRuns(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}
