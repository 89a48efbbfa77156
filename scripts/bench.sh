#!/usr/bin/env bash
# bench.sh — run the repo's key microbenchmarks and emit a JSON snapshot.
#
# Usage: scripts/bench.sh [label] [count]
#
#   label   snapshot name; output goes to BENCH_<label>.json (default: HEAD
#           short hash)
#   count   -count passed to `go test` (default: 10)
#
# The snapshot records per-benchmark mean ns/op with its sample standard
# deviation, B/op, and allocs/op so a PR can commit a BENCH_<pr>.json marker
# and reviewers can diff hot-path cost without rerunning anything; a single
# run swings by about 10% between repeats, so read a delta against the
# stddev. CI's benchmark job still does the
# authoritative benchstat comparison against the merge base; this file is
# the human-readable record.
set -euo pipefail

cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo local)}"
count="${2:-10}"
out="BENCH_${label}.json"

benches='BenchmarkEngine$|BenchmarkSingleRun$|BenchmarkSingleRunIDA$|BenchmarkSingleRunIDACold$|BenchmarkCodingMerge$|BenchmarkCodingPlan$|BenchmarkFTLRead$|BenchmarkFTLRestore$|BenchmarkTraceGeneration$|BenchmarkFigure8Snapshotted$|BenchmarkFigure8DefaultRequests$|BenchmarkFarmThroughput$'
# The run-mode rows at experiments.DefaultRequests, the budget of the
# paper's tables (the 2,500-request rows stay out of the snapshot).
modes='BenchmarkRunModes$/@40000$/'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running: $benches and $modes (count=$count)" >&2
go test -run '^$' -bench "$benches" -benchmem -count "$count" . | tee "$raw" >&2
go test -run '^$' -bench "$modes" -benchmem -count "$count" . | tee -a "$raw" >&2

awk -v label="$label" '
  # Pick metrics by unit token, not column position: benchmarks that
  # ReportMetric extra values (FarmThroughput reports runs/s) shift the
  # B/op and allocs/op columns.
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) {
      if ($(i + 1) == "ns/op") { ns[name] += $i; ns2[name] += $i * $i }
      else if ($(i + 1) == "B/op") b[name] += $i
      else if ($(i + 1) == "allocs/op") allocs[name] += $i
    }
    cnt[name]++
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  }
  END {
    printf "{\n  \"label\": \"%s\",\n  \"goos\": \"%s\",\n  \"benchmarks\": {\n", label, ENVIRON["GOOS"] != "" ? ENVIRON["GOOS"] : "local"
    for (i = 1; i <= n; i++) {
      name = order[i]
      c = cnt[name]
      mean = ns[name] / c
      # Sample standard deviation of ns/op over the -count repeats.
      sd = 0
      if (c > 1) {
        v = (ns2[name] - c * mean * mean) / (c - 1)
        sd = v > 0 ? sqrt(v) : 0
      }
      printf "    \"%s\": {\"ns_per_op\": %.1f, \"ns_per_op_stddev\": %.1f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.1f}%s\n", \
        name, mean, sd, b[name] / c, allocs[name] / c, i < n ? "," : ""
    }
    printf "  }\n}\n"
  }
' "$raw" > "$out"

echo "wrote $out" >&2
cat "$out"

# Diff against the newest committed PR baseline (highest PR number), when
# one exists: a per-benchmark delta table so the snapshot is
# self-explaining next to the history.
baseline="$(git ls-files 'BENCH_PR*.json' 2>/dev/null | grep -vxF "$out" | sort -V | tail -n 1 || true)"
if [[ -n "$baseline" ]]; then
  echo >&2
  echo "delta vs $baseline (ns/op):" >&2
  python3 - "$baseline" "$out" >&2 <<'PY' || true
import json, sys
base = json.load(open(sys.argv[1]))["benchmarks"]
cur = json.load(open(sys.argv[2]))["benchmarks"]
width = max(len(n) for n in cur)
for name, c in cur.items():
    b = base.get(name)
    if b is None:
        print(f"  {name:<{width}}  {c['ns_per_op']:>14.1f}  (new)")
        continue
    delta = (c["ns_per_op"] - b["ns_per_op"]) / b["ns_per_op"] * 100
    # Older baselines carry no stddev; show the current run's spread.
    sd = c.get("ns_per_op_stddev", 0) / c["ns_per_op"] * 100
    print(f"  {name:<{width}}  {b['ns_per_op']:>14.1f} -> {c['ns_per_op']:>14.1f}  {delta:+6.1f}% (sd {sd:.1f}%)")
PY
fi
