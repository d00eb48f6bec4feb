//! `benchmark compare A.jsonl B.jsonl`: two sets of runs, judged against
//! the bounds in `BENCHMARK.json`.
//!
//! Each file holds the result lines `--out` appends, one per workload run.
//! Every (end-to-end metric, workload) row reads better, same, worse or
//! unresolved: unresolved when either set's spread (interquartile distance
//! over median) is wider than the metric's bound, unless every run of B
//! beats every run of A. Traced runs add their per-layer medians, ranked by
//! the size of the change, to say which layer moved.

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use lbc_model::json::Json;

use crate::stats::{median, spread};

/// The benchmark definition the bounds come from.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One end-to-end metric's contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json`, with their bounds.
pub fn bounds() -> Vec<Bound> {
    let definition = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    definition
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|metric| Bound {
            name: field(metric, "name"),
            unit: field(metric, "unit"),
            lower_is_better: field(metric, "better") == "lower",
            bound: metric
                .get("bound")
                .and_then(Json::as_f64)
                .expect("every end-to-end metric has a bound"),
        })
        .collect()
}

/// The `(name, unit)` pairs of a metric list in `BENCHMARK.json`.
#[cfg(test)]
pub fn listed(section: &str) -> Vec<(String, String)> {
    let definition = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    definition
        .get(section)
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .map(|item| (field(item, "name"), field(item, "unit")))
                .collect()
        })
        .unwrap_or_default()
}

fn field(item: &Json, key: &str) -> String {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The runs of one file: per (workload, traced) per metric, every value.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<(String, bool, String), Vec<f64>>,
    attempted: u64,
    failed: u64,
    runs: usize,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let mut set = RunSet::default();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = Json::parse(line).map_err(|err| format!("{path}:{}: {err}", number + 1))?;
        let workload = row
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let traced = row.get("trace").and_then(Json::as_u64) == Some(1);
        set.runs += 1;
        set.attempted += row.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        set.failed += row.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(metrics)) = row.get("metrics") {
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    set.values
                        .entry((workload.to_string(), traced, name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(set)
}

/// The judgement of one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges B against A for a metric with the given direction and bound.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(spread_a), Some(spread_b)) = (spread(a), spread(b)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if spread_a > bound || spread_b > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (mid_a, mid_b) = (median(a), median(b));
    let change = (mid_b - mid_a) / mid_a.abs();
    let worsening = if lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Runs the subcommand; exit 1 when any row is worse or unresolved or any
/// output check failed.
pub fn run(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    println!(
        "A: {} runs, {} of {} checks failed; B: {} runs, {} of {} checks failed",
        a.runs, a.failed, a.attempted, b.runs, b.failed, b.attempted
    );
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "A sprd", "B sprd", "bound"
    );
    let mut clean = a.failed == 0 && b.failed == 0;
    let workloads: Vec<String> = a
        .values
        .keys()
        .filter(|(_, traced, _)| !traced)
        .map(|(workload, _, _)| workload.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let bounds = bounds();
    for workload in &workloads {
        for metric in &bounds {
            let key = (workload.clone(), false, metric.name.clone());
            let empty = Vec::new();
            let va = a.values.get(&key).unwrap_or(&empty);
            let vb = b.values.get(&key).unwrap_or(&empty);
            let verdict = judge(va, vb, metric.lower_is_better, metric.bound);
            clean &= matches!(verdict, Verdict::Better | Verdict::Same);
            let pct = |x: Option<f64>| {
                x.map_or_else(|| "-".to_string(), |x| format!("{:.1}%", x * 100.0))
            };
            let (mid_a, mid_b) = (median(va), median(vb));
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>8} {:>8} {:>8} {:>6}  {:?} ({})",
                workload,
                metric.name,
                mid_a,
                mid_b,
                pct((mid_a != 0.0).then(|| (mid_b - mid_a) / mid_a.abs())),
                pct(spread(va)),
                pct(spread(vb)),
                pct(Some(metric.bound)),
                verdict,
                metric.unit,
            );
        }
    }
    let mut layer_changes: Vec<(f64, String, String, f64, f64)> = a
        .values
        .iter()
        .filter(|((_, traced, _), _)| *traced)
        .filter_map(|((workload, _, name), va)| {
            let vb = b.values.get(&(workload.clone(), true, name.clone()))?;
            let (mid_a, mid_b) = (median(va), median(vb));
            (mid_a != 0.0 && mid_a != mid_b).then(|| {
                (
                    (mid_b - mid_a) / mid_a.abs(),
                    workload.clone(),
                    name.clone(),
                    mid_a,
                    mid_b,
                )
            })
        })
        .collect();
    layer_changes.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
    if !layer_changes.is_empty() {
        println!("per-layer changes (traced runs), largest first:");
        for (change, workload, name, mid_a, mid_b) in layer_changes {
            println!(
                "  {:+8.1}%  {:<16} {:<26} {} -> {}",
                change * 100.0,
                workload,
                name,
                mid_a,
                mid_b
            );
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_reads_direction_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 20 % slower, both sets tight: worse for a lower-is-better metric,
        // better for a higher-is-better one.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::Worse);
        assert_eq!(judge(&a, &b, false, 0.1), Verdict::Better);
        assert_eq!(judge(&a, &a, true, 0.1), Verdict::Same);
        // A spread wider than the bound leaves the row unresolved…
        let noisy = [0.5, 1.0, 1.5, 1.0, 0.7];
        assert_eq!(judge(&noisy, &a, true, 0.1), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let fast = [0.1, 0.2, 0.3, 0.2, 0.1];
        assert_eq!(judge(&noisy, &fast, true, 0.1), Verdict::Better);
        assert_eq!(judge(&[1.0], &[1.0], true, 0.1), Verdict::Unresolved);
    }
}
