#!/usr/bin/env bash
# Serve smoke: runs the committed 200-instance repeated-consensus spec
# (C9(1,2) under sync and async-fifo, plus an Algorithm 1 lane on C5) in
# --strict mode at 1, 2 and 8 workers, byte-compares the canonical JSON
# reports across worker counts, and asserts the report's own verdicts:
# every instance correct and the per-tag ledger-channel occupancy bounded
# (<= 2 live / <= 3 allocated — the chained driver must retire instance
# k-2's session as instance k starts, not accumulate channels).
#
# It then runs the benchmark's serve-chain spec (Figure 1b, f = 1, a sync
# lane and an edge-lag-d3 lane, 1000 instances each) under --strict at 1
# and 2 workers with byte-identical reports. No other serve lane runs on an
# edge-lag schedule, where Definition C.1 decides most of an instance's
# receipts.
#
# Last, a memory gate: 4000 instances of serve_1000.json must peak below
# 64 MiB of resident memory. The event loop keeps only the transmissions
# still in flight, so a lane's memory does not grow with its chain (about
# 14 MB here); a loop that kept every transmission of the chain needs about
# 220 MB. The gates only read the spec files.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${LBC_SERVE_OUT:-target/lbc-serve-smoke}"
SPEC="examples/campaigns/serve_smoke.json"
rm -rf "$OUT"
mkdir -p "$OUT/w1" "$OUT/w2" "$OUT/w8" "$OUT/chain-w1" "$OUT/chain-w2" "$OUT/long"

cargo build --release --bin lbc

./target/release/lbc serve "$SPEC" --strict --workers 1 --out "$OUT/w1"
./target/release/lbc serve "$SPEC" --strict --workers 2 --out "$OUT/w2" --quiet
./target/release/lbc serve "$SPEC" --strict --workers 8 --out "$OUT/w8" --quiet
cmp "$OUT/w1/serve-smoke.serve.report.json" "$OUT/w2/serve-smoke.serve.report.json"
cmp "$OUT/w1/serve-smoke.serve.report.json" "$OUT/w8/serve-smoke.serve.report.json"

# Re-assert the verdicts from the report itself, independent of the CLI's
# exit-code paths: all instances correct, channel occupancy bounded.
python3 - "$OUT/w1/serve-smoke.serve.report.json" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["all_correct"] is True, "report not all-correct"
assert report["channels_bounded"] is True, "report channel occupancy unbounded"
instances = 0
for lane in report["lanes"]:
    chain = lane["chain"]
    assert chain["max_live_per_tag"] <= 2, f"lane {lane['index']}: {chain['max_live_per_tag']} live sessions per tag"
    assert chain["max_allocated_channels"] <= 3 * max(chain["live_tags"], 1), \
        f"lane {lane['index']}: {chain['max_allocated_channels']} allocated channels"
    for record in lane["instances"]:
        assert record["correct"] is True, f"lane {lane['index']}: incorrect instance"
        instances += 1
expected = report["instances"] * len(report["lanes"])
assert instances == expected, f"{instances} instance records, expected {expected}"
print(f"report verdicts ok: {instances} instances, channels bounded in every lane")
EOF

CHAIN=benchmark/workloads/serve_chain.json
./target/release/lbc serve "$CHAIN" --strict --quiet --workers 1 --out "$OUT/chain-w1"
./target/release/lbc serve "$CHAIN" --strict --quiet --workers 2 --out "$OUT/chain-w2"
cmp "$OUT/chain-w1/serve-1000.serve.report.json" "$OUT/chain-w2/serve-1000.serve.report.json"

python3 - "$OUT/long" <<'EOF'
import resource, subprocess, sys

limit_mib = 64
command = ["./target/release/lbc", "serve", "examples/campaigns/serve_1000.json",
           "--instances", "4000", "--quiet", "--out", sys.argv[1]]
subprocess.run(command, check=True)
# Linux reports ru_maxrss in KiB.
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"serve_1000.json x4000 peak RSS {peak_mib:.1f} MiB (limit {limit_mib} MiB)")
assert peak_mib <= limit_mib, f"peak RSS {peak_mib:.1f} MiB above {limit_mib} MiB"
EOF

echo "serve smoke OK: strict verdicts + byte-identical reports at 1/2/8 workers + bounded channels + serve-chain edge-lag lane at 1/2 workers + 4000-instance chain under 64 MiB"
