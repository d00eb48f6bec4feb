#!/usr/bin/env bash
# Async-regime smoke: gates the execution-regime boundary campaign.
#
# 1. `lbc campaign --list` expands the committed async_boundary spec without
#    executing anything (the spec-debugging view must cover every regime).
# 2. The sweep runs at 1 and 4 workers and the canonical reports must be
#    byte-identical — the regime axis (derived schedule seeds included) is
#    part of the determinism contract.
# 3. The boundary result itself is asserted: every conforming cell
#    (C9(1,2), connectivity 4 ≥ 2f+1) is correct under every scheduler, the
#    synchronous Algorithm 1 control on the 5-cycle is correct, and the
#    *same* 5-cycle under the asynchronous algorithm reproduces agreement
#    violations — the regime separation, deterministically.
# 4. The benchmark's async-circulant spec (C9/C11/C13(1,2), f = 1) runs under
#    --strict at 1 and 2 workers with byte-identical reports. No other gate
#    runs the async algorithm on more than nine nodes, and the C13
#    tamper-relays cells are where the Definition C.1 disjoint-path search
#    works hardest. The gate only reads the spec file.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${LBC_ASYNC_OUT:-target/lbc-async-smoke}"
rm -rf "$OUT"
mkdir -p "$OUT/w1" "$OUT/w4" "$OUT/circ-w1" "$OUT/circ-w2"

cargo build --release --bin lbc

# Spec debugging: the expanded table must list the async regimes.
./target/release/lbc campaign examples/campaigns/async_boundary.json --list > "$OUT/list.txt"
grep -q "async-edge-lag-d3" "$OUT/list.txt"
grep -q "async-delay-max-d3" "$OUT/list.txt"
./target/release/lbc search examples/campaigns/search_boundary.json --list > /dev/null

./target/release/lbc campaign examples/campaigns/async_boundary.json --workers 1 --out "$OUT/w1" --quiet
./target/release/lbc campaign examples/campaigns/async_boundary.json --workers 4 --out "$OUT/w4" --quiet
cmp "$OUT/w1/async_boundary.report.json" "$OUT/w4/async_boundary.report.json"
./target/release/lbc campaign diff "$OUT/w1/async_boundary.report.json" "$OUT/w4/async_boundary.report.json" > /dev/null

python3 - "$OUT/w1/async_boundary.report.json" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
conforming = sync_control = violations = sub_threshold = 0
for record in report["records"]:
    family, algorithm = record["family"], record["algorithm"]
    if family == "circulant" and algorithm == "async":
        conforming += 1
        assert record["feasible"], "C9(1,2) is above the async threshold"
        assert record["correct"], f"conforming cell violated: {record}"
    elif family == "cycle" and algorithm == "alg1":
        sync_control += 1
        assert record["correct"], f"sync control violated: {record}"
    elif family == "cycle" and algorithm == "async":
        sub_threshold += 1
        assert not record["feasible"], "the cycle is below the async threshold"
        violations += 0 if record["correct"] else 1
    else:
        raise AssertionError(f"unexpected cell: {record}")

assert conforming > 0 and sync_control > 0 and sub_threshold > 0
assert violations > 0, "the sub-threshold cycle must exhibit async violations"
print(
    f"async boundary OK: {conforming} conforming correct, "
    f"{sync_control} sync-control correct, "
    f"{violations}/{sub_threshold} sub-threshold violations reproduced"
)
EOF

CIRCULANT=benchmark/workloads/async_circulant.json
./target/release/lbc campaign "$CIRCULANT" --strict --quiet --workers 1 --out "$OUT/circ-w1"
./target/release/lbc campaign "$CIRCULANT" --strict --quiet --workers 2 --out "$OUT/circ-w2"
cmp "$OUT/circ-w1/async_circulant.report.json" "$OUT/circ-w2/async_circulant.report.json"

echo "async smoke OK: regime axis deterministic across workers + boundary separation reproduced + C9-C13 circulants correct"
