#!/usr/bin/env bash
# Repeatability check: runs the untraced benchmark as two sets of N runs
# (default 3), every run with another seed, and prints per workload and
# end-to-end metric both set medians, their relative difference, each set's
# spread (interquartile range over median) and the bound from
# BENCHMARK.json. Exits nonzero if the second median is worse than the
# first by more than the bound, a spread exceeds it (setup_s excepted), or
# any run fails.
#
#   benchmark/repeat.sh [N] [workload ...]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:-3}"
shift || true
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/prep-benchmark"
exec python3 - "$here/../BENCHMARK.json" "$bin" "$n" "$@" <<'EOF'
import json, statistics, subprocess, sys

manifest = json.load(open(sys.argv[1]))
binary, n, only = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
seconds = manifest["run_seconds"]
bad = False

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
        return None
    if seed == 1:
        print(lines[0])  # the host fingerprint
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()))
    return values

def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':<14} {'metric':<15} {'median A':>12} {'median B':>12} {'B vs A':>8} {'iqr A':>7} {'iqr B':>7} {'bound':>6}")
for w in manifest["workloads"]:
    if only and w["name"] not in only:
        continue
    sets = [[run(w["name"], s) for s in range(first, first + n)] for first in (1, n + 1)]
    if any(r is None for rs in sets for r in rs):
        bad = True
        continue
    for m in manifest["end_to_end"]:
        a, b = ([r[m["name"]] for r in rs] for rs in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        over = worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        bad |= over
        print(f"{w['name']:<14} {m['name']:<15} {ma:>12.4f} {mb:>12.4f} {worse:>+8.1%} {sa:>7.1%} {sb:>7.1%} {m['bound']:>6.0%}"
              + ("  OVER" if over else ""))
sys.exit(1 if bad else 0)
EOF
