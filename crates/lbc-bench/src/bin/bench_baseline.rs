//! Collects the per-benchmark JSON records written by the criterion shim
//! (under `target/lbc-bench/`, or `$LBC_BENCH_OUT`) into a single baseline
//! file (first CLI argument; default `BENCH_baseline.json`) at the
//! workspace root. `bench_gate` derives the naive-over-ledger flood-engine
//! ratios from the medians recorded here.
//!
//! Run via `scripts/bench_baseline.sh [out.json]`, which executes the
//! benches first.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use lbc_model::json::Json;

fn read_records(dir: &PathBuf) -> Vec<Json> {
    let mut records = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return records;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        match Json::parse(&text) {
            Ok(record) => records.push(record),
            Err(err) => eprintln!("skipping {}: {err}", path.display()),
        }
    }
    records
}

fn main() -> ExitCode {
    let out_dir = std::env::var_os("LBC_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/lbc-bench"));
    let records = read_records(&out_dir);
    if records.is_empty() {
        eprintln!(
            "no bench records under {}; run `cargo bench -p lbc-bench` first \
             (or use scripts/bench_baseline.sh)",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let count = records.len();
    let baseline = Json::object([
        (
            "description",
            Json::Str(
                "Criterion-shim medians (ns/iter) for the lbc benches; \
                 bench_gate pairs each *_naive flood bench with its *_ledger \
                 sibling on the same workload"
                    .to_string(),
            ),
        ),
        ("benches", Json::Arr(records)),
    ]);

    let out_path = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("BENCH_baseline.json"), PathBuf::from);
    if let Err(err) = fs::write(&out_path, baseline.pretty() + "\n") {
        eprintln!("failed to write {}: {err}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({count} records)", out_path.display());
    ExitCode::SUCCESS
}
