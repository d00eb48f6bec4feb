//! Compares a freshly measured bench baseline against the committed one and
//! fails on flood-engine speedup regressions.
//!
//! ```text
//! bench_gate <committed.json> <fresh.json> [tolerance-percent]
//! ```
//!
//! The gated ratio is `ledger_speedup_vs_naive`: the median of every
//! `<group>/<w>_naive` bench over the median of its `<group>/<w>_ledger`
//! sibling, read from the `benches` records of each file and rounded to two
//! decimals. Absolute nanosecond medians vary wildly across runner hardware,
//! but the naive / ledger *ratio* on the same machine is stable — a ledger
//! speedup that drops more than the tolerance (default 25%) below the
//! committed value means an engine regression, not a slow runner. A
//! workload that disappears from the fresh measurement also fails (a
//! silently renamed bench would otherwise retire its own gate); new
//! workloads are reported but pass.
//!
//! Run via `scripts/bench_gate.sh`, which measures the fresh baseline
//! first.

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use lbc_model::json::Json;

/// The gated ratio: naive reference median over ledger engine median.
const GATED_RATIO: &str = "ledger_speedup_vs_naive";

fn load(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    Json::parse(&text).map_err(|err| format!("{path}: {err}"))
}

/// The naive-over-ledger ratio of every `<group>/<w>_naive` bench with a
/// `<group>/<w>_ledger` sibling, keyed by workload `<group>/<w>`.
fn speedups(doc: &Json, path: &str) -> Result<BTreeMap<String, f64>, String> {
    let entries = doc
        .get("benches")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing 'benches' (not a bench baseline?)"))?;
    let medians: BTreeMap<String, f64> = entries
        .iter()
        .filter_map(|entry| {
            let group = entry.get("group")?.as_str()?;
            let bench = entry.get("bench")?.as_str()?;
            Some((
                format!("{group}/{bench}"),
                entry.get("median_ns")?.as_f64()?,
            ))
        })
        .collect();
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    Ok(medians
        .iter()
        .filter_map(|(name, naive)| {
            let workload = name.strip_suffix("_naive")?;
            let ledger = medians.get(&format!("{workload}_ledger"))?;
            (*ledger > 0.0).then(|| (workload.to_string(), round2(naive / ledger)))
        })
        .collect())
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let (Some(committed_path), Some(fresh_path)) = (args.next(), args.next()) else {
        return Err("usage: bench_gate <committed.json> <fresh.json> [tolerance-percent]".into());
    };
    let tolerance_percent: f64 = match args.next() {
        None => 25.0,
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("tolerance must be a number, got '{raw}'"))?,
    };
    let floor = 1.0 - tolerance_percent / 100.0;

    let committed = speedups(&load(&committed_path)?, &committed_path)?;
    let fresh = speedups(&load(&fresh_path)?, &fresh_path)?;
    if committed.is_empty() {
        return Err(format!(
            "{committed_path}: no naive/ledger bench pairs to gate"
        ));
    }

    let mut ok = true;
    for (workload, base) in &committed {
        let Some(measured) = fresh.get(workload) else {
            eprintln!("GATE FAIL: workload '{workload}' missing from {fresh_path}");
            ok = false;
            continue;
        };
        let minimum = base * floor;
        if *measured < minimum {
            eprintln!(
                "GATE FAIL: {workload} {GATED_RATIO} regressed: {measured:.2} < \
                 {minimum:.2} (committed {base:.2} - {tolerance_percent}%)"
            );
            ok = false;
        } else {
            println!(
                "gate ok: {workload} {GATED_RATIO} = {measured:.2} \
                 (committed {base:.2}, floor {minimum:.2})"
            );
        }
    }
    for workload in fresh.keys() {
        if !committed.contains_key(workload) {
            println!("gate note: new workload '{workload}' (no committed baseline yet)");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench gate passed");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
