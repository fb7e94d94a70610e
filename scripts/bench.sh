#!/usr/bin/env bash
# Run the repository's hot-path benchmarks and snapshot the results as
# a machine-readable baseline so perf regressions diff against a
# committed reference.
#
# Usage:
#
#   scripts/bench.sh [output.json]
#   scripts/bench.sh --compare BENCH_baseline.json [output.json]
#
# Writes BENCH_baseline.json (or the given path) at the repo root with
# one record per benchmark: ns/op, B/op, allocs/op, MB/s, and any
# custom metrics (e.g. sim_Mbps from the stack bulk-transfer bench),
# each the median of -count 3 runs.
#
# With --compare the fresh run is checked against the given baseline
# and the script exits non-zero when any benchmark regresses: ns/op
# worse than the baseline by more than NSOP_TOL percent (default 10),
# or allocs/op above the baseline at all (the zero-alloc fast paths
# admit no tolerance; BenchmarkRxPath/uninstrumented in particular
# must stay at 0 allocs/op with profiling off — the profiled variant's
# overhead is measured separately as BenchmarkRxPath/profiled — and
# BenchmarkRxPathTelemetry holds the ingress path at 0 allocs/op with
# a telemetry agent attached, as does the agent's own
# BenchmarkTelemetrySnapshotEncode build path, and
# BenchmarkRxPathStateful plus BenchmarkConntrack's lookup variants
# hold the conntrack-enabled ingress there too, and
# BenchmarkKernelQueue holds the pooled event path at 0 allocs/op at
# the queue depths a flood keeps pending, and BenchmarkKernelQueue/lane
# holds a card's full ring of completions on one sim.Lane there too;
# on the receiving host,
# BenchmarkTCPUnmarshal holds the decoders at 0 allocs/op and
# BenchmarkHostReceive holds Host.receive of a UDP datagram to a bound
# socket there too, as do BenchmarkSeal and BenchmarkOpen, which seal
# and open into a reused buffer; end to end, BenchmarkFramePath/plain
# and /sealed hold Send → switch → handleFrame → deliver at 0
# allocs/op with pooled frames, as BenchmarkTCPMarshal/marshal-to-scratch,
# the host stack's encode into a reused buffer, holds 0).
# A baseline row the run did not measure also fails, so renaming or
# deleting a gated benchmark cannot drop its gate in silence: a change
# that does so edits the baseline with it. A new benchmark with no
# baseline row is reported but does not fail.
#
# To compare two .pprof cost/kernel profiles written by -profile-out,
# use the toolchain's reader: go tool pprof -top -diff_base OLD NEW.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=""
if [ "${1:-}" = "--compare" ]; then
  baseline="${2:?--compare needs a baseline path}"
  [ -r "$baseline" ] || { echo "bench.sh: baseline $baseline not readable" >&2; exit 2; }
  shift 2
fi
out="${1:-BENCH_baseline.json}"
if [ -n "$baseline" ] && [ "$#" -eq 0 ]; then
  out="$(mktemp --suffix .json)"
fi
pkgs="./internal/nic ./internal/nic/conntrack ./internal/fw ./internal/fw/sem ./internal/sim ./internal/packet ./internal/measure ./internal/stack ./internal/telemetry ./internal/vpg"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem -count "${BENCH_COUNT:-3}" -timeout 30m $pkgs | tee "$raw"

python3 - "$raw" "$out" <<'PY'
import json, re, statistics, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
# Benchmark line: "BenchmarkName-8  <iters>  <value> <unit>  <value> <unit> ..."
line_re = re.compile(r"^(Benchmark\S+)\s+(\d+)\s+(.*)$")
pair_re = re.compile(r"([0-9.eE+]+)\s+(\S+)")

samples = {}
for line in open(raw_path):
    m = line_re.match(line.strip())
    if not m:
        continue
    name = re.sub(r"-\d+$", "", m.group(1))  # strip the -GOMAXPROCS suffix
    metrics = samples.setdefault(name, {})
    for value, unit in pair_re.findall(m.group(3)):
        metrics.setdefault(unit, []).append(float(value))

baseline = {
    name: {unit: statistics.median(vals) for unit, vals in metrics.items()}
    for name, metrics in sorted(samples.items())
}
with open(out_path, "w") as f:
    json.dump(baseline, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(baseline)} benchmarks)")
PY

if [ -n "$baseline" ]; then
  NSOP_TOL="${NSOP_TOL:-10}" python3 - "$baseline" "$out" <<'PY'
import json, os, sys

base_path, cur_path = sys.argv[1], sys.argv[2]
tol = float(os.environ.get("NSOP_TOL", "10"))
base = json.load(open(base_path))
cur = json.load(open(cur_path))

failures, notes = [], []
for name in sorted(set(base) | set(cur)):
    if name not in cur:
        failures.append(f"  {name}: in baseline only; not measured (removed or renamed?)")
        continue
    if name not in base:
        notes.append(f"  {name}: new benchmark, no baseline")
        continue
    b, c = base[name], cur[name]
    b_ns, c_ns = b.get("ns/op"), c.get("ns/op")
    if b_ns and c_ns is not None and c_ns > b_ns * (1 + tol / 100):
        failures.append(
            f"  {name}: ns/op {c_ns:g} vs baseline {b_ns:g} (+{(c_ns / b_ns - 1) * 100:.1f}% > {tol:g}%)")
    b_al, c_al = b.get("allocs/op", 0), c.get("allocs/op", 0)
    if c_al > b_al:
        failures.append(
            f"  {name}: allocs/op {c_al:g} vs baseline {b_al:g} (any increase fails)")

if notes:
    print("bench compare notes:")
    print("\n".join(notes))
if failures:
    print(f"bench compare FAILED against {base_path} (NSOP_TOL={tol:g}%):")
    print("\n".join(failures))
    sys.exit(1)
print(f"bench compare OK against {base_path} "
      f"({len([n for n in base if n in cur])} benchmarks, NSOP_TOL={tol:g}%)")
PY
fi
