#!/usr/bin/env bash
# Bench-regression gate: re-measures the flood-engine baseline on this
# machine and compares the naive-over-ledger speedup of every *_naive /
# *_ledger bench pair (computed by bench_gate from the medians in both
# files) against the committed baseline with a ±25% tolerance. Absolute
# nanosecond medians differ across hardware; the engine *ratios* are far
# more stable — a drop past the tolerance is an engine regression and fails
# the job.
#
# The default baseline is BENCH_pr4.json (the PR-4 snapshot; ratios drift
# across hardware generations, so the committed baseline should be
# refreshed via scripts/bench_baseline.sh whenever the reference machine
# changes — BENCH_pr3.json's 12x wheel13 ratio, for example, measures ~7x
# on the PR-4 machine).
#
#   scripts/bench_gate.sh                       # gate against BENCH_pr4.json
#   scripts/bench_gate.sh BENCH_other.json      # gate against another baseline
#   BENCH_GATE_TOLERANCE=40 scripts/bench_gate.sh   # widen the tolerance
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-BENCH_pr4.json}"
TOLERANCE="${BENCH_GATE_TOLERANCE:-25}"
FRESH_DIR="target/lbc-bench-gate"
FRESH="$FRESH_DIR/fresh_baseline.json"

mkdir -p "$FRESH_DIR"
scripts/bench_baseline.sh "$FRESH"
cargo run --release -p lbc-bench --bin bench_gate -- "$BASELINE" "$FRESH" "$TOLERANCE"

# Disabled-observer overhead wall: the hot path now threads an
# ObserverHandle everywhere, so the fresh medians *are* the
# disabled-observer measurement. They must stay within tolerance of the
# pre-telemetry snapshot (BENCH_pr6.json) — ~2% on the baseline machine;
# the default tolerance matches the ratio gate's to absorb hardware drift.
OBS_BASELINE="${LBC_OBS_BASELINE:-BENCH_pr6.json}"
OBS_TOLERANCE="${LBC_OBS_TOLERANCE:-$TOLERANCE}"
python3 - "$OBS_BASELINE" "$FRESH" "$OBS_TOLERANCE" <<'EOF'
import json, sys

base_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])
HOT = [
    ("fig1a_cycle", "flood_c13_ledger"),
    ("fig1a_cycle", "algorithm1_c13_f1_tamper"),
    ("reliable_receive", "flood_wheel13_ledger"),
    ("reliable_receive", "algorithm2_k5_f2_identification"),
    ("async_regime", "asyncflood_circ9_f1_fifo_d3"),
    ("async_regime", "asyncflood_circ9_f1_psync_g12_h2_fifo_d3"),
]

def medians(path):
    doc = json.load(open(path))
    return {(b["group"], b["bench"]): b["median_ns"] for b in doc["benches"]}

base, fresh = medians(base_path), medians(fresh_path)
ceiling = 1.0 + tolerance / 100.0
ok = True
for key in HOT:
    name = "/".join(key)
    if key not in base:
        print(f"obs gate note: {name} absent from {base_path}")
        continue
    if key not in fresh:
        print(f"OBS GATE FAIL: {name} missing from fresh measurement", file=sys.stderr)
        ok = False
        continue
    ratio = fresh[key] / base[key]
    line = (f"{name}: {fresh[key]:.0f}ns vs committed {base[key]:.0f}ns "
            f"({(ratio - 1) * 100:+.1f}%, ceiling +{tolerance:.0f}%)")
    if ratio > ceiling:
        print(f"OBS GATE FAIL: {line}", file=sys.stderr)
        ok = False
    else:
        print(f"obs gate ok: {line}")
if not ok:
    sys.exit(1)
print("disabled-observer overhead gate passed")
EOF

# Repeated-consensus service wall: the chained driver behind `lbc serve`
# must (a) keep beating the same workload replayed as one-shot runs — the
# amortization that justifies the long-lived Network — and (b) hold its
# committed decisions/sec and p99 instance-latency medians (BENCH_pr8.json)
# within the shared tolerance. With the shim's 10-sample groups the
# nearest-rank p99 is the max sample, so the tail wall reads max_ns.
SERVE_BASELINE="${LBC_SERVE_BASELINE:-BENCH_pr8.json}"
SERVE_TOLERANCE="${LBC_SERVE_TOLERANCE:-$TOLERANCE}"
python3 - "$SERVE_BASELINE" "$FRESH" "$SERVE_TOLERANCE" <<'EOF'
import json, sys

base_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])
GROUP = "serve_throughput"
PAIRS = [  # (regime label, chain bench, oneshot bench, instances per iteration)
    ("sync", "chain100_circ9_f1_sync", "oneshot100_circ9_f1_sync", 100),
    ("fifo_d2", "chain100_circ9_f1_fifo_d2", "oneshot100_circ9_f1_fifo_d2", 100),
]

def records(path):
    doc = json.load(open(path))
    return {(b["group"], b["bench"]): b for b in doc["benches"]}

base, fresh = records(base_path), records(fresh_path)
ceiling = 1.0 + tolerance / 100.0
ok = True
for label, chain, oneshot, instances in PAIRS:
    ck, ok_key = (GROUP, chain), (GROUP, oneshot)
    missing = [k for k in (ck, ok_key) if k not in fresh]
    if missing:
        for k in missing:
            print(f"SERVE GATE FAIL: {'/'.join(k)} missing from fresh measurement",
                  file=sys.stderr)
        ok = False
        continue
    c, o = fresh[ck], fresh[ok_key]

    # Amortization: chain median must stay below the one-shot median. The
    # ratio is fresh-vs-fresh on one machine, so it gets the committed
    # ratio widened by the tolerance as its ceiling, capped at parity.
    ratio = c["median_ns"] / o["median_ns"]
    cap = 1.0
    if ck in base and ok_key in base:
        cap = min(1.0, (base[ck]["median_ns"] / base[ok_key]["median_ns"]) * ceiling)
    line = f"serve {label}: chain/oneshot {ratio:.3f} (ceiling {cap:.3f})"
    if ratio > cap:
        print(f"SERVE GATE FAIL: {line}", file=sys.stderr)
        ok = False
    else:
        print(f"serve gate ok: {line}")

    if ck not in base:
        print(f"serve gate note: {'/'.join(ck)} absent from {base_path}")
        continue
    b = base[ck]

    # Throughput: committed decisions/sec within tolerance.
    rate = instances * 1e9 / c["median_ns"]
    floor = instances * 1e9 / b["median_ns"] / ceiling
    line = f"serve {label}: {rate:.0f} decisions/s (floor {floor:.0f})"
    if rate < floor:
        print(f"SERVE GATE FAIL: {line}", file=sys.stderr)
        ok = False
    else:
        print(f"serve gate ok: {line}")

    # Tail: p99 instance latency (max of the 10-sample group / instances).
    p99 = c["max_ns"] / instances
    wall = b["max_ns"] / instances * ceiling
    line = f"serve {label}: p99 {p99 / 1000:.0f}us/instance (wall {wall / 1000:.0f}us)"
    if p99 > wall:
        print(f"SERVE GATE FAIL: {line}", file=sys.stderr)
        ok = False
    else:
        print(f"serve gate ok: {line}")
if not ok:
    sys.exit(1)
print("repeated-consensus service gate passed")
EOF
