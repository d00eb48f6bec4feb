//! `benchmark` — the end-to-end and per-layer benchmark of the
//! local-broadcast consensus workspace.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]
//!           [--out FILE]
//!                     measure one workload (all four without --workload)
//!                     for about S seconds (default 5; at least one cycle
//!                     of its four input seeds) of timed repetitions;
//!                     --seed replaces the spec's seed. Prints
//!                     every metric by name and unit, then one JSON result
//!                     line per workload: the end-to-end metrics, or with
//!                     --trace 1 (--traced) the per-layer metrics of a
//!                     separate replay pass. --out appends the result lines
//!                     to FILE. Exit 1 when an output check fails.
//! benchmark compare A.jsonl B.jsonl
//!                     judge two sets of --out lines against the bounds in
//!                     BENCHMARK.json
//! ```
//!
//! Run it from the repository root:
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload dense-sync`.

mod compare;
mod heap;
mod layers;
mod probe;
mod stats;
mod workload;

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::ExitCode;

use lbc_model::json::Json;

use crate::workload::{Measurement, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage:\n  benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--out FILE]\n  benchmark compare A.jsonl B.jsonl\nworkloads: dense-sync async-circulant search-boundary serve-chain";

/// Seeds travel as JSON numbers in specs; larger ones would not round-trip.
const MAX_SEED: u64 = 1 << 53;

#[derive(Debug)]
struct Options {
    workloads: Vec<&'static Workload>,
    seed: Option<u64>,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: None,
        seconds: 5.0,
        traced: false,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
                options.workloads = vec![workload];
            }
            "--seed" => {
                let seed = value()?;
                options.seed = Some(
                    seed.parse::<u64>()
                        .ok()
                        .filter(|&s| s <= MAX_SEED)
                        .ok_or_else(|| {
                            format!("--seed must be an integer in 0..=2^53, not '{seed}'")
                        })?,
                );
            }
            "--seconds" => {
                let seconds = value()?;
                options.seconds = seconds
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds must be in (0, 600], not '{seconds}'"))?;
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--traced" => options.traced = true,
            "--out" => options.out = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(options)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(measurement: &Measurement) -> Vec<(&'static str, Json)> {
    let metrics = measurement
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::object([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    vec![
        ("correct", Json::Bool(measurement.failed == 0)),
        ("attempted", Json::Num(measurement.attempted as f64)),
        ("failed", Json::Num(measurement.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|err| format!("cannot open {path}: {err}"))?;
    writeln!(file, "{line}").map_err(|err| format!("cannot write {path}: {err}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for &workload in &options.workloads {
        let seed = options.seed.unwrap_or_else(|| workload.default_seed());
        let measurement = match workload::measure(workload, seed, options.seconds, options.traced) {
            Ok(measurement) => measurement,
            Err(message) => {
                eprintln!("{}: {message}", workload.name);
                return ExitCode::from(2);
            }
        };
        for line in &measurement.lines {
            println!("{line}");
        }
        for (name, value, unit) in &measurement.metrics {
            println!("  {name:<26} {value} {unit}");
        }
        let result = result_json(&measurement);
        if let Some(path) = &options.out {
            let mut fields = vec![
                ("workload", Json::Str(workload.name.to_string())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(u8::from(options.traced)))),
            ];
            fields.extend(result.iter().cloned());
            if let Err(message) = append_line(path, &Json::object(fields).to_string()) {
                eprintln!("{message}");
                return ExitCode::from(2);
            }
        }
        println!("{}", Json::object(result));
        correct &= measurement.failed == 0;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
