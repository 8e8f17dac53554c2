#!/usr/bin/env bash
# Benchmark harness: times the main CLI drivers end-to-end and emits a
# JSON report — wall-clock per driver, fleet events/sec, and the
# snapshot-store dedup ratio with dedup on vs off.
#
# Usage:
#   scripts/bench.sh [out.json]      measure and write a report
#                                    (default BENCH_<YYYY-MM-DD>.json)
#   scripts/bench.sh --compare       measure, diff against the latest
#                                    committed BENCH_*.json, fail on a
#                                    >15% wall-clock or events/sec
#                                    regression, then append the new
#                                    point to the trajectory
#   scripts/bench.sh --selftest      verify the regression gate itself:
#                                    a 2x injected slowdown of the run
#                                    just measured MUST trip the compare
#
# Report schema (schema_version 2): a top-level `config` records the
# driver parameters the numbers depend on (seed, chunk size), and each
# cluster driver carries its dedup flag. `--compare` refuses to diff
# reports whose schema_version or config differ — cross-config deltas
# are not regressions, they are different experiments.
#
# Wall-clock numbers are machine-dependent and only comparable across
# runs on the same machine; served counts and dedup ratios are
# deterministic per seed, and `--compare` treats a drift in those as a
# failure too (it means behavior changed without re-blessing the
# baseline: rerun `scripts/bench.sh` and review the new report).
#
# Methodology: every driver except cluster_mega is sampled 5 times and
# the median wall is reported; the smoke fleets also use `faasnapd
# --repeat` to amortize process startup over 20 in-process runs, so
# their wall_ms is per-simulation (fractional ms). Ratio-based gates
# skip sub-25 ms measurements unless the absolute slowdown is >= 5 ms.
#
# FAASNAP_BENCH_SLOW=<factor> multiplies measured wall times in the
# generated report — the hook `--selftest` uses to prove the gate trips.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE=run
OUT=""
for arg in "$@"; do
    case "$arg" in
        --compare) MODE=compare ;;
        --selftest) MODE=selftest ;;
        --*) echo "bench.sh: unknown flag $arg" >&2; exit 2 ;;
        *) OUT="$arg" ;;
    esac
done
OUT="${OUT:-BENCH_$(date +%F).json}"

SEED=42
CHUNK_BYTES=2097152
# Each non-mega driver is sampled MEDIAN_RUNS times and the report
# records the median wall, so a single scheduler hiccup cannot move the
# trajectory. The smoke fleets additionally run SMOKE_REPEAT in-process
# repetitions per sample (faasnapd --repeat asserts they are
# byte-identical) and record wall/SMOKE_REPEAT — per-simulation time
# with the ~2 ms process-startup floor amortized away, which at ~1-2 ms
# per fleet would otherwise dominate the measurement.
MEDIAN_RUNS=5
SMOKE_REPEAT=20

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "==> building release faasnapd + faasnap-lint"
cargo build --release -q -p faasnap-cluster --bin faasnapd
cargo build --release -q -p faasnap-lint

: > "$TMP/wall.txt"
# time_driver <name> <divisor> <cmd...>: appends one "<name> <ns>
# <divisor>" sample; the report takes the median over samples of
# ns/divisor per name.
time_driver() {
    local name="$1" divisor="$2"
    shift 2
    echo "==> $name: $*"
    local t0 t1
    t0=$(date +%s%N)
    "$@" > "$TMP/$name.out" 2> /dev/null
    t1=$(date +%s%N)
    echo "$name $((t1 - t0)) $divisor" >> "$TMP/wall.txt"
}

FD=./target/release/faasnapd
for _ in $(seq "$MEDIAN_RUNS"); do
    time_driver invoke_hello_faasnap 1 "$FD" invoke hello-world
    time_driver invoke_json_reap 1 "$FD" invoke json --strategy reap
    # The catalog's largest working set: the record phase (mincore scans)
    # dominates, so this driver tracks the record layer.
    time_driver invoke_recognition_faasnap 1 "$FD" invoke recognition
    time_driver burst_json_x8 1 "$FD" burst json --parallelism 8
    # Snapshot branching: 100 sibling restores from one snapshot —
    # tracks the shared-fault-path cost (cache + in-flight dedup + COW).
    time_driver fork_fanout_x100 1 "$FD" invoke json --fork 100
    time_driver cluster_smoke "$SMOKE_REPEAT" "$FD" cluster --smoke --policy snapshot-locality \
        --seed "$SEED" --repeat "$SMOKE_REPEAT"
    time_driver cluster_smoke_dedup_off "$SMOKE_REPEAT" "$FD" cluster --smoke \
        --policy snapshot-locality --seed "$SEED" --dedup off --repeat "$SMOKE_REPEAT"
    # Deep static analysis over the whole workspace: parse, call graph,
    # taint. Tracks analyzer cost as the codebase and the analyzer grow.
    time_driver lint_deep 1 ./target/release/faasnap-lint --deep
done
# Trace scale: ≥10⁶ invocations across 1000 hosts, one sample (its
# multi-second wall is far above timer noise).
time_driver cluster_mega 1 "$FD" cluster --mega --policy snapshot-locality --seed "$SEED"
# Snapshot branching at scale: one 1000-way fork, one sample for the same
# reason. Per-sibling state and per-event cost that grow with N show here
# long before they move the x100 driver.
time_driver fork_fanout_x1000 1 "$FD" invoke json --fork 1000

# Renders $TMP measurements into a schema v2 report at $1. Honors
# FAASNAP_BENCH_SLOW as a wall-time multiplier (self-test hook).
generate() {
    python3 - "$TMP" "$1" "$SEED" "$CHUNK_BYTES" << 'EOF'
import json, os, sys, datetime, pathlib, statistics

tmp, out = pathlib.Path(sys.argv[1]), sys.argv[2]
seed, chunk_bytes = int(sys.argv[3]), int(sys.argv[4])
slow = float(os.environ.get("FAASNAP_BENCH_SLOW", "1"))
# Median over the samples of each driver (ns / in-process divisor),
# insertion-ordered by first appearance.
samples = {}
for line in (tmp / "wall.txt").read_text().splitlines():
    name, ns, divisor = line.split()
    samples.setdefault(name, []).append(int(ns) / 1e6 / int(divisor))
walls = dict(
    (name, round(statistics.median(vals) * slow, 3)) for name, vals in samples.items()
)

drivers = []
for name, wall_ms in walls.items():
    entry = {"name": name, "wall_ms": wall_ms}
    if name.startswith("cluster"):
        doc = json.loads((tmp / f"{name}.out").read_text())
        fleet = doc["runs"][0]["fleet"]
        served = fleet["served"]
        entry["dedup"] = not name.endswith("_dedup_off")
        entry["served"] = served
        entry["events_per_sec"] = round(served / (wall_ms / 1000.0), 1) if wall_ms else None
        entry["dedup_ratio"] = fleet["store"]["dedup_ratio"]
        entry["snapshots_resident"] = fleet["store"]["snapshots_resident"]
    drivers.append(entry)

report = {
    "schema_version": 2,
    "date": datetime.date.today().isoformat(),
    "config": {"seed": seed, "chunk_bytes": chunk_bytes},
    "drivers": drivers,
}
pathlib.Path(out).write_text(json.dumps(report, indent=2) + "\n")
EOF
}

# compare <baseline.json> <current.json>: exit 1 on a perf regression or
# deterministic-value drift, exit 3 on a schema/config mismatch.
compare() {
    python3 - "$1" "$2" << 'EOF'
import json, sys, pathlib

old = json.loads(pathlib.Path(sys.argv[1]).read_text())
new = json.loads(pathlib.Path(sys.argv[2]).read_text())

# Cross-schema diffs are different experiments, not regressions.
if old.get("schema_version") != new.get("schema_version"):
    print(f"bench compare: schema_version {old.get('schema_version')} vs "
          f"{new.get('schema_version')} — refusing to diff", file=sys.stderr)
    sys.exit(3)
if old.get("config") != new.get("config"):
    print(f"bench compare: config {old.get('config')} vs {new.get('config')} "
          f"— refusing to diff", file=sys.stderr)
    sys.exit(3)

# Wall-clock gate: >15% slower, with an absolute slack so millisecond
# noise on tiny drivers cannot trip it. The suite total gets a tighter
# slack — aggregate noise averages out.
RATIO, DRIVER_SLACK_MS, TOTAL_SLACK_MS = 1.15, 30, 10
# A 15% ratio on a sub-25 ms measurement is within a timer tick or two
# of noise: ratio-based checks (events/sec) only apply above this wall
# floor, unless the absolute slowdown is itself >= 5 ms — a real
# regression on a tiny driver still trips on magnitude.
MIN_RATE_WALL_MS, MIN_ABS_DELTA_MS = 25, 5

olds = {d["name"]: d for d in old["drivers"]}
news = {d["name"]: d for d in new["drivers"]}
failures = []
for name in sorted(olds.keys() & news.keys()):
    o, n = olds[name], news[name]
    if o.get("dedup") != n.get("dedup"):
        print(f"bench compare: {name}: dedup flag changed — refusing to diff",
              file=sys.stderr)
        sys.exit(3)
    if n["wall_ms"] > o["wall_ms"] * RATIO + DRIVER_SLACK_MS:
        failures.append(f"{name}: wall {o['wall_ms']} ms -> {n['wall_ms']} ms "
                        f"(>{int((RATIO - 1) * 100)}% + {DRIVER_SLACK_MS} ms)")
    rate_eligible = (o["wall_ms"] >= MIN_RATE_WALL_MS
                     or n["wall_ms"] - o["wall_ms"] >= MIN_ABS_DELTA_MS)
    if (o.get("events_per_sec") and n.get("events_per_sec") and rate_eligible
            and n["events_per_sec"] < o["events_per_sec"] / RATIO):
        failures.append(f"{name}: events/sec {o['events_per_sec']} -> "
                        f"{n['events_per_sec']}")
    for det in ("served", "dedup_ratio", "snapshots_resident"):
        if det in o and o[det] != n.get(det):
            failures.append(f"{name}: deterministic {det} {o[det]} -> {n.get(det)} "
                            f"(behavior changed; rerun scripts/bench.sh to re-bless)")

# Totals compare only drivers both reports know: a newly-added driver
# is new coverage, not a regression of the old suite.
common = olds.keys() & news.keys()
o_total = round(sum(olds[name]["wall_ms"] for name in common), 3)
n_total = round(sum(news[name]["wall_ms"] for name in common), 3)
if n_total > o_total * RATIO + TOTAL_SLACK_MS:
    failures.append(f"suite total: {o_total} ms -> {n_total} ms")

if failures:
    print("bench compare: REGRESSION vs " + sys.argv[1], file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print(f"bench compare: OK vs {sys.argv[1]} (suite {o_total} ms -> {n_total} ms)")
EOF
}

generate "$TMP/current.json"

case "$MODE" in
    run)
        cp "$TMP/current.json" "$OUT"
        echo "wrote $OUT"
        cat "$OUT"
        ;;
    compare)
        BASELINE="$(ls BENCH_*.json 2> /dev/null | sort | tail -n 1 || true)"
        if [[ -z "$BASELINE" ]]; then
            echo "bench compare: no committed BENCH_*.json baseline" >&2
            exit 2
        fi
        compare "$BASELINE" "$TMP/current.json"
        cp "$TMP/current.json" "$OUT"
        echo "appended trajectory point $OUT"
        ;;
    selftest)
        # The gate must trip on a 2x slowdown of this very run — no
        # dependence on how fast the committed baseline's machine was.
        FAASNAP_BENCH_SLOW=2 generate "$TMP/slowed.json"
        if compare "$TMP/current.json" "$TMP/slowed.json" > /dev/null 2>&1; then
            echo "bench selftest: FAIL — 2x slowdown did not trip the gate" >&2
            exit 1
        fi
        echo "bench selftest: OK — 2x slowdown trips the regression gate"
        ;;
esac
