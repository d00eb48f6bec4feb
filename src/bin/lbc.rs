//! `lbc` — a small command-line front end for the local-broadcast consensus
//! library.
//!
//! ```text
//! lbc check <graph> <f> [t]        feasibility of a graph for f faults (t equivocators)
//! lbc run   <alg> <graph> <f> <faulty> <strategy>
//!                                  run a consensus algorithm and print the outcome
//! lbc impossibility <graph> <f>    run the Figure 2/3 constructions on a deficient graph
//! lbc experiments [id]             print experiment tables (all, or E1..E8)
//! lbc campaign <spec.json> [--workers N] [--out DIR] [--strict] [--list]
//!              [--cell-timeout MS] [--resume]
//!                                  expand and execute a campaign spec, writing
//!                                  <name>.report.json (canonical, deterministic)
//!                                  and <name>.report.csv (with wall times);
//!                                  --list prints the expanded scenario table
//!                                  without executing anything; panicking or
//!                                  over-budget cells are quarantined, completed
//!                                  cells are journaled so a killed run can be
//!                                  continued byte-identically with --resume.
//!                                  exit codes: 0 clean, 1 violations under
//!                                  --strict, 2 infrastructure failures
//! lbc campaign diff [--cross-spec] <old.json> <new.json>
//!                                  compare two canonical reports (campaign or
//!                                  search) cell-by-cell; exit non-zero on
//!                                  verdict regressions. --cross-spec matches
//!                                  by coordinates and tolerates added grids
//! lbc serve <spec.json> [--instances N] [--workers N] [--out DIR]
//!           [--strict] [--quiet] [--list]
//!                                  run the spec's repeated-consensus service
//!                                  lanes: N consecutive instances chained over
//!                                  one long-lived network per lane; writes
//!                                  <name>.serve.report.json (canonical,
//!                                  deterministic) and <name>.serve.report.csv
//!                                  (per-instance latencies). exit codes:
//!                                  0 clean, 1 incorrect instances under
//!                                  --strict, 2 unbounded ledger channels
//! lbc search <spec.json> [--workers N] [--out DIR] [--resume REPORT]
//!            [--require-violation] [--list]
//!                                  per-cell worst-case adversary search; writes
//!                                  <name>.search.json (canonical, resumable)
//!                                  and <name>.counterexamples.json (replayable
//!                                  minimized violations)
//! lbc trace <spec.json> --cell <id> [--no-timeline]
//!                                  replay one campaign cell with the recording
//!                                  observer and print its event timeline plus a
//!                                  violation post-mortem (works on the
//!                                  counterexample specs `lbc search` emits)
//! lbc graphs                       list the built-in graph names
//! ```
//!
//! Graph names: `c<N>` (cycle), `k<N>` (complete), `circ<N>` (circulant with
//! offsets 1,2), `q3` (hypercube), `wheel<N>`, `path<N>`, `fig1a`, `fig1b`.

use std::env;
use std::fs;
use std::io::{self, ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lbc_campaign::diff::{diff_report_texts_with, DiffOptions};
use lbc_campaign::{
    render_search_plan, replay_scenario, run_scenarios_resumable, run_search_resumed,
    run_serve_opts, CampaignSpec, ChaosPolicy, CheckpointConfig, ExecOptions, StrategySpec,
};
use lbc_model::json::{FromJson, Json, ToJson};
use local_broadcast_consensus::experiments;
use local_broadcast_consensus::prelude::*;

fn parse_graph(name: &str) -> Option<Graph> {
    let lower = name.to_lowercase();
    let tail_number = |prefix: &str| -> Option<usize> { lower.strip_prefix(prefix)?.parse().ok() };
    match lower.as_str() {
        "fig1a" => return Some(generators::paper_fig1a()),
        "fig1b" => return Some(generators::paper_fig1b()),
        "q3" => return Some(generators::hypercube(3)),
        _ => {}
    }
    if let Some(n) = tail_number("circ") {
        return (n >= 5).then(|| generators::circulant(n, &[1, 2]));
    }
    if let Some(n) = tail_number("wheel") {
        return (n >= 4).then(|| generators::wheel(n));
    }
    if let Some(n) = tail_number("path") {
        return Some(generators::path_graph(n));
    }
    if let Some(n) = tail_number("c") {
        return (n >= 3).then(|| generators::cycle(n));
    }
    if let Some(n) = tail_number("k") {
        return Some(generators::complete(n));
    }
    None
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lbc check <graph> <f> [t]\n  lbc run <alg1|alg2|alg3|p2p|async> <graph> <f> <faulty-node> <strategy>\n  lbc impossibility <graph> <f>\n  lbc experiments [E1..E8]\n  lbc campaign <spec.json> [--workers N] [--out DIR] [--strict] [--quiet] [--telemetry] [--list]\n               [--cell-timeout MS] [--resume]\n  lbc serve <spec.json> [--instances N] [--workers N] [--out DIR] [--strict] [--quiet] [--list]\n  lbc trace <spec.json> --cell <id> [--no-timeline]\n  lbc campaign diff [--cross-spec] <old.report.json> <new.report.json>\n  lbc search <spec.json> [--workers N] [--out DIR] [--resume REPORT] [--require-violation] [--quiet] [--list]\n  lbc graphs\n\nstrategies: honest silent tamper-all tamper-relays equivocate random sleeper sleeper-tamper straddle-tamper gst-equivocate crash-recover crash-after\ngraphs: c<N> k<N> circ<N> wheel<N> path<N> q3 fig1a fig1b\nregimes (spec files): sync | {{\"kind\": \"async\", ...}} | {{\"kind\": \"partial-sync\", \"gst\": G, \"hold\": [..], ...}}\n\ncampaign exit codes: 0 = clean run, 1 = consensus violations under --strict,\n  2 = infrastructure trouble (panicked/timed-out cells, or a usage error)"
    );
    ExitCode::from(2)
}

/// `lbc campaign diff [--cross-spec] <old.json> <new.json>`
///
/// Compares two canonical reports cell-by-cell — campaign reports by
/// scenario identity, search reports by cell coordinates — and prints every
/// difference. Exit code 1 when any scenario regresses from correct to
/// incorrect (or a search cell loses a previously-found violation); other
/// changes (rounds, added or removed scenarios, incorrect→correct) are
/// informational. `--cross-spec` matches scenarios by coordinates instead
/// of full grid identity, tolerates added grids, and reports removed cells
/// as warnings.
fn cmd_campaign_diff(args: &[String]) -> ExitCode {
    let mut options = DiffOptions::default();
    let mut paths: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--cross-spec" => options.cross_spec = true,
            _ => paths.push(arg),
        }
    }
    let (Some(old_path), Some(new_path)) = (paths.first(), paths.get(1)) else {
        return usage();
    };
    let old = match fs::read_to_string(old_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {old_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let new = match fs::read_to_string(new_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {new_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match diff_report_texts_with(&old, &new, options) {
        Ok(diff) => {
            print!("{}", diff.render());
            if diff.has_regressions() {
                eprintln!("verdict regressions detected");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}

/// `lbc search <spec.json> [--workers N] [--out DIR] [--resume REPORT]
/// [--require-violation] [--quiet]`
///
/// Runs the per-cell worst-case adversary search of the spec's `search`
/// block (defaults apply when absent), writing `<out>/<name>.search.json`
/// (the canonical, resumable report) and — when violations were found —
/// `<out>/<name>.counterexamples.json`, a replayable campaign spec whose
/// sweeps are the minimized counterexamples. `--resume` restores per-cell
/// frontiers from a previous canonical search report and continues the
/// budgeted mutation schedule. With `--require-violation` the exit code is
/// non-zero when **no** cell violates — the mode CI smoke uses to assert a
/// known violation stays rediscoverable.
fn cmd_search(args: &[String]) -> ExitCode {
    let Some(spec_path) = args.first() else {
        return usage();
    };
    let mut workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut out_dir: Option<PathBuf> = None;
    let mut resume_path: Option<String> = None;
    let mut require_violation = false;
    let mut quiet = false;
    let mut list = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workers" => {
                let Some(count) = rest.next().and_then(|w| w.parse::<usize>().ok()) else {
                    eprintln!("--workers requires a positive integer");
                    return ExitCode::from(2);
                };
                workers = count.max(1);
            }
            "--out" => {
                let Some(dir) = rest.next() else {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                };
                out_dir = Some(PathBuf::from(dir));
            }
            "--resume" => {
                let Some(path) = rest.next() else {
                    eprintln!("--resume requires a canonical search report");
                    return ExitCode::from(2);
                };
                resume_path = Some(path.clone());
            }
            "--require-violation" => require_violation = true,
            "--quiet" => quiet = true,
            "--list" => list = true,
            other => {
                eprintln!("unknown search flag: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let text = match fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match CampaignSpec::from_json_text(&text) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if list {
        // Spec debugging: print the expanded cell table, run nothing.
        return match render_search_plan(&spec) {
            Ok(plan) => {
                print!("{plan}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{spec_path}: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let prior = match &resume_path {
        None => None,
        Some(path) => match fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        {
            Ok(json) => Some(json),
            Err(err) => {
                eprintln!("cannot load resume report {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
    };
    let started = Instant::now();
    let report = match run_search_resumed(&spec, prior.as_ref(), workers) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("."));
    if let Err(err) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let json_path = out_dir.join(format!("{}.search.json", report.name()));
    if let Err(err) = fs::write(&json_path, report.to_json().pretty() + "\n") {
        eprintln!("cannot write {}: {err}", json_path.display());
        return ExitCode::FAILURE;
    }
    let counterexamples = out_dir.join(format!("{}.counterexamples.json", report.name()));
    let counterexample_path = match report.counterexample_spec() {
        Some(replay) => Some((
            counterexamples.clone(),
            fs::write(&counterexamples, replay.to_json().pretty() + "\n"),
        )),
        None => {
            // A violation-free run must not leave a previous run's
            // counterexamples lying around as if they were still current.
            match fs::remove_file(&counterexamples) {
                Ok(()) => eprintln!(
                    "removed stale {} (this run found no violations)",
                    counterexamples.display()
                ),
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(err) => {
                    eprintln!("cannot remove stale {}: {err}", counterexamples.display());
                    return ExitCode::FAILURE;
                }
            }
            None
        }
    };
    if let Some((path, Err(err))) = &counterexample_path {
        eprintln!("cannot write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    if !quiet {
        print!("{}", report.render_summary());
        println!(
            "wall time {:.3}s ({} workers); wrote {}{}",
            elapsed.as_secs_f64(),
            workers,
            json_path.display(),
            counterexample_path
                .as_ref()
                .map_or_else(String::new, |(path, _)| format!(" and {}", path.display()))
        );
    }
    if require_violation && report.violations().is_empty() {
        eprintln!("--require-violation: no cell found a violation");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &[String]) -> ExitCode {
    let (Some(graph_name), Some(f)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(graph) = parse_graph(graph_name) else {
        eprintln!("unknown graph: {graph_name}");
        return ExitCode::from(2);
    };
    let Ok(f) = f.parse::<usize>() else {
        return usage();
    };
    let t: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
    println!(
        "graph {graph_name}: n = {}, min degree = {}, vertex connectivity = {}",
        graph.node_count(),
        graph.min_degree(),
        connectivity::vertex_connectivity(&graph)
    );
    println!(
        "local broadcast   (f = {f}):        {}",
        conditions::local_broadcast_feasible(&graph, f)
    );
    println!(
        "efficient (2f-connected, f = {f}):  {}",
        conditions::efficient_algorithm_applicable(&graph, f)
    );
    println!(
        "point-to-point    (f = {f}):        {}",
        conditions::point_to_point_feasible(&graph, f)
    );
    if t <= f {
        println!(
            "hybrid (f = {f}, t = {t}):            {}",
            conditions::hybrid_feasible(&graph, f, t)
        );
    }
    println!(
        "max tolerable f: local broadcast = {}, point-to-point = {}",
        conditions::max_f_local_broadcast(&graph),
        conditions::max_f_point_to_point(&graph)
    );
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (Some(alg), Some(graph_name), Some(f), Some(faulty_node), Some(strategy_name)) = (
        args.first(),
        args.get(1),
        args.get(2),
        args.get(3),
        args.get(4),
    ) else {
        return usage();
    };
    let Some(graph) = parse_graph(graph_name) else {
        eprintln!("unknown graph: {graph_name}");
        return ExitCode::from(2);
    };
    let (Ok(f), Ok(faulty_index)) = (f.parse::<usize>(), faulty_node.parse::<usize>()) else {
        return usage();
    };
    let Ok(strategy) = StrategySpec::from_json(&Json::Str(strategy_name.clone())) else {
        eprintln!("unknown strategy: {strategy_name}");
        return ExitCode::from(2);
    };
    let n = graph.node_count();
    if faulty_index >= n {
        eprintln!("faulty node {faulty_index} out of range for n = {n}");
        return ExitCode::from(2);
    }
    // Alternating inputs make the instance non-trivial.
    let inputs = InputAssignment::from_values((0..n).map(|i| Value::from(i % 2 == 1)).collect());
    let faulty = NodeSet::singleton(NodeId::new(faulty_index));
    // 42 seeds the `random` strategy.
    let mut adversary = strategy.materialize(42).into_adversary();
    let (outcome, trace) = if alg == "alg3" {
        runner::run_algorithm3(&graph, f, f, &faulty, &inputs, &faulty, &mut adversary)
    } else {
        let Some(kind) = AlgorithmKind::from_name(alg) else {
            eprintln!("unknown algorithm: {alg}");
            return ExitCode::from(2);
        };
        let regime = if kind == AlgorithmKind::AsyncFlood {
            // A representative adversarial schedule; campaigns sweep the
            // full scheduler × delay grid.
            Regime::Asynchronous(lbc_model::AsyncRegime {
                scheduler: lbc_model::SchedulerKind::EdgeLag,
                delay: 3,
                seed: 42,
            })
        } else {
            Regime::Synchronous
        };
        runner::run_kind_under(kind, &regime, &graph, f, &inputs, &faulty, &mut adversary)
    };
    println!("graph = {graph_name}, f = {f}, faulty = {faulty}, strategy = {strategy_name}");
    println!("inputs  = {inputs}");
    println!(
        "rounds  = {}, transmissions = {}",
        trace.rounds(),
        trace.total_transmissions()
    );
    println!("{outcome}");
    if outcome.verdict().is_correct() {
        println!("consensus reached on {:?}", outcome.agreed_value());
        ExitCode::SUCCESS
    } else {
        println!("CONSENSUS VIOLATED");
        ExitCode::FAILURE
    }
}

fn cmd_impossibility(args: &[String]) -> ExitCode {
    let (Some(graph_name), Some(f)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(graph) = parse_graph(graph_name) else {
        eprintln!("unknown graph: {graph_name}");
        return ExitCode::from(2);
    };
    let Ok(f) = f.parse::<usize>() else {
        return usage();
    };
    let rounds = Algorithm1Node::round_count(graph.node_count(), f) + 4;
    let mut any = false;
    for (label, construction) in [
        ("degree (Figure 2)", degree_construction(&graph, f)),
        (
            "connectivity (Figure 3)",
            connectivity_construction(&graph, f),
        ),
    ] {
        match construction {
            None => println!("{label}: condition satisfied, no construction applies"),
            Some(c) => {
                any = true;
                println!("{label}: {}", c.description());
                let report = c.demonstrate(|_id, input| Algorithm1Node::new(input), rounds);
                for execution in &report.executions {
                    println!(
                        "  {}: faulty = {}, {}",
                        execution.label,
                        execution.faulty,
                        execution.verdict()
                    );
                }
                println!(
                    "  violation exhibited: {} ({:?})",
                    report.exhibits_violation(),
                    report.violated_executions()
                );
            }
        }
    }
    if !any {
        println!("graph satisfies both Theorem 4.1 conditions for f = {f}; consensus is possible");
    }
    ExitCode::SUCCESS
}

/// The exit status after a failed write to stdout. A reader that closed the
/// pipe early (`lbc trace … | head`) has read all it wanted, so that ends
/// the command quietly with status 0.
fn stdout_failure(err: &io::Error) -> ExitCode {
    if err.kind() == ErrorKind::BrokenPipe {
        ExitCode::SUCCESS
    } else {
        eprintln!("cannot write to stdout: {err}");
        ExitCode::FAILURE
    }
}

fn cmd_experiments(args: &[String]) -> ExitCode {
    let wanted = args.first().map(|s| s.to_uppercase());
    let all = [
        (
            "E1",
            experiments::e1_fig1a_cycle as fn() -> experiments::ExperimentResult,
        ),
        ("E2", experiments::e2_fig1b_f2),
        ("E3", experiments::e3_degree_lower_bound),
        ("E4", experiments::e4_connectivity_lower_bound),
        ("E5", experiments::e5_threshold_sweep),
        ("E6", experiments::e6_round_complexity),
        ("E7", experiments::e7_hybrid_tradeoff),
        ("E8", experiments::e8_reliable_receive),
    ];
    let mut ran = false;
    let mut out = io::stdout().lock();
    for (id, run) in all {
        if wanted.as_deref().is_none_or(|w| w == id) {
            if let Err(err) = writeln!(out, "{}\n", run().render_table()) {
                return stdout_failure(&err);
            }
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment id; use E1..E8");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// `lbc campaign <spec.json> [--workers N] [--out DIR] [--strict] [--quiet]
/// [--cell-timeout MS] [--resume]`
///
/// Expands the spec, executes it on a worker pool, writes
/// `<out>/<name>.report.json` (the canonical, worker-count-independent
/// report) and `<out>/<name>.report.csv` (per-scenario rows including wall
/// times) — `--out` defaults to the current directory, so running a
/// committed example spec does not drop reports into the source tree —
/// and prints the rollup summary.
///
/// Execution is fault-tolerant: a panicking cell is quarantined as a
/// `failed` record, `--cell-timeout MS` (or the spec's `limits` block)
/// degrades over-budget cells to `timeout` records, and completed cells
/// are journaled to `<out>/<name>.checkpoint.json` so a killed run can be
/// continued with `--resume` (the resumed report is byte-identical to the
/// one-shot report; the journal is removed once the report is written).
///
/// Exit codes distinguish outcome classes: **0** clean, **1** consensus
/// violations under `--strict`, **2** infrastructure trouble (any
/// panicked or timed-out cell; infrastructure takes precedence over
/// `--strict`, and usage errors share this code).
fn cmd_campaign(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("diff") {
        return cmd_campaign_diff(&args[1..]);
    }
    let Some(spec_path) = args.first() else {
        return usage();
    };
    let mut workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut out_dir: Option<PathBuf> = None;
    let mut strict = false;
    let mut quiet = false;
    let mut telemetry = false;
    let mut list = false;
    let mut cell_timeout_ms: Option<u64> = None;
    let mut resume = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workers" => {
                let Some(count) = rest.next().and_then(|w| w.parse::<usize>().ok()) else {
                    eprintln!("--workers requires a positive integer");
                    return ExitCode::from(2);
                };
                workers = count.max(1);
            }
            "--out" => {
                let Some(dir) = rest.next() else {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                };
                out_dir = Some(PathBuf::from(dir));
            }
            "--cell-timeout" => {
                let Some(ms) = rest.next().and_then(|w| w.parse::<u64>().ok()) else {
                    eprintln!("--cell-timeout requires a budget in milliseconds");
                    return ExitCode::from(2);
                };
                cell_timeout_ms = Some(ms);
            }
            "--strict" => strict = true,
            "--quiet" => quiet = true,
            "--telemetry" => telemetry = true,
            "--resume" => resume = true,
            "--list" => list = true,
            other => {
                eprintln!("unknown campaign flag: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let text = match fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match CampaignSpec::from_json_text(&text) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (scenarios, notes) = match spec.expand_noted() {
        Ok(expansion) => expansion,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if list {
        // Spec debugging: print the expanded scenario table, run nothing.
        println!(
            "campaign '{}' (seed {}): {} scenarios",
            spec.name,
            spec.seed,
            scenarios.len()
        );
        for note in &notes {
            println!("note: {note}");
        }
        for scenario in &scenarios {
            println!(
                "  #{} {} n={} f={} {} [{}] {} faulty={} inputs={} feasible={}",
                scenario.index,
                scenario.graph,
                scenario.n,
                scenario.f,
                scenario.algorithm.name(),
                scenario.regime.label(),
                scenario.strategy_name,
                scenario.faulty,
                scenario.inputs,
                scenario.feasible
            );
        }
        return ExitCode::SUCCESS;
    }
    if !quiet {
        println!(
            "campaign '{}': {} scenarios on {workers} workers",
            spec.name,
            scenarios.len()
        );
        for note in &notes {
            println!("note: {note}");
        }
    }
    // The output directory must exist before the run: the checkpoint
    // journal lives there and is written while cells execute.
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("."));
    if let Err(err) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut options = ExecOptions::new(workers);
    options.telemetry = telemetry;
    options.progress = !quiet;
    options.cell_timeout_micros = cell_timeout_ms.map(|ms| ms.saturating_mul(1000));
    options.chaos = ChaosPolicy::from_env();
    let mut checkpoint =
        CheckpointConfig::new(out_dir.join(format!("{}.checkpoint.json", spec.name)));
    checkpoint.resume = resume;
    if resume && checkpoint.path.exists() && !quiet {
        println!(
            "resuming completed cells from {}",
            checkpoint.path.display()
        );
    }
    let checkpoint_path = checkpoint.path.clone();
    options.checkpoint = Some(checkpoint);
    let started = Instant::now();
    let report = match run_scenarios_resumable(&spec, &scenarios, notes, &options) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();
    let json_path = out_dir.join(format!("{}.report.json", report.name()));
    let csv_path = out_dir.join(format!("{}.report.csv", report.name()));
    if let Err(err) = fs::write(&json_path, report.to_json().pretty() + "\n") {
        eprintln!("cannot write {}: {err}", json_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(err) = fs::write(&csv_path, report.to_csv()) {
        eprintln!("cannot write {}: {err}", csv_path.display());
        return ExitCode::FAILURE;
    }
    // The run is durably reported; the journal has served its purpose.
    match fs::remove_file(&checkpoint_path) {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
        Err(err) => eprintln!(
            "warning: cannot remove checkpoint {}: {err}",
            checkpoint_path.display()
        ),
    }
    if let Some(telemetry) = report.telemetry() {
        let telemetry_path = out_dir.join(format!("{}.telemetry.csv", report.name()));
        if let Err(err) = fs::write(&telemetry_path, telemetry.to_csv()) {
            eprintln!("cannot write {}: {err}", telemetry_path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            println!("telemetry: wrote {}", telemetry_path.display());
        }
    }
    if !quiet {
        println!("{}", report.render_summary());
        println!(
            "wall time {:.3}s ({} workers); wrote {} and {}",
            elapsed.as_secs_f64(),
            workers,
            json_path.display(),
            csv_path.display()
        );
    }
    // Infrastructure trouble (a panicked or timed-out cell) outranks
    // verdict checking: the report is incomplete evidence either way.
    let quarantined = report.quarantined();
    if !quarantined.is_empty() {
        for record in &quarantined {
            eprintln!(
                "QUARANTINED ({}): #{} {} {} f={} {} faulty={} inputs={}",
                record.status.label(),
                record.index,
                record.graph,
                record.algorithm.name(),
                record.f,
                record.strategy,
                record.faulty,
                record.inputs,
            );
        }
        return ExitCode::from(2);
    }
    if strict && !report.all_correct() {
        for record in report.incorrect() {
            eprintln!(
                "INCORRECT: #{} {} {} f={} {} faulty={} inputs={} ({})",
                record.index,
                record.graph,
                record.algorithm.name(),
                record.f,
                record.strategy,
                record.faulty,
                record.inputs,
                record.verdict
            );
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(spec_path) = args.first() else {
        return usage();
    };
    let mut workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut instances: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut strict = false;
    let mut quiet = false;
    let mut list = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workers" => {
                let Some(count) = rest.next().and_then(|w| w.parse::<usize>().ok()) else {
                    eprintln!("--workers requires a positive integer");
                    return ExitCode::from(2);
                };
                workers = count.max(1);
            }
            "--instances" => {
                let Some(count) = rest.next().and_then(|w| w.parse::<usize>().ok()) else {
                    eprintln!("--instances requires a positive integer");
                    return ExitCode::from(2);
                };
                instances = Some(count);
            }
            "--out" => {
                let Some(dir) = rest.next() else {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                };
                out_dir = Some(PathBuf::from(dir));
            }
            "--strict" => strict = true,
            "--quiet" => quiet = true,
            "--list" => list = true,
            other => {
                eprintln!("unknown serve flag: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let text = match fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match CampaignSpec::from_json_text(&text) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(serve) = &spec.serve else {
        eprintln!("{spec_path}: spec has no 'serve' block");
        return ExitCode::from(2);
    };
    if list {
        // Spec debugging: print the lane table, run nothing.
        println!(
            "serve '{}' (seed {}): {} lanes x {} instances",
            spec.name,
            spec.seed,
            serve.lanes.len(),
            instances.unwrap_or(serve.instances)
        );
        for (index, lane) in serve.lanes.iter().enumerate() {
            println!(
                "  lane {index} {} n={} f={} {} [{}] {} faulty={:?}",
                lane.family.label(lane.n),
                lane.n,
                lane.f,
                lane.algorithm.name(),
                lane.regime.label(),
                lane.strategy.name(),
                lane.faulty,
            );
        }
        return ExitCode::SUCCESS;
    }
    if !quiet {
        println!(
            "serve '{}': {} lanes x {} instances on {workers} workers",
            spec.name,
            serve.lanes.len(),
            instances.unwrap_or(serve.instances)
        );
    }
    let report = match run_serve_opts(&spec, workers, instances) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("."));
    if let Err(err) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let json_path = out_dir.join(format!("{}.serve.report.json", report.name()));
    let csv_path = out_dir.join(format!("{}.serve.report.csv", report.name()));
    if let Err(err) = fs::write(&json_path, report.to_json().pretty() + "\n") {
        eprintln!("cannot write {}: {err}", json_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(err) = fs::write(&csv_path, report.to_csv()) {
        eprintln!("cannot write {}: {err}", csv_path.display());
        return ExitCode::FAILURE;
    }
    if !quiet {
        print!("{}", report.render_summary());
        println!(
            "wall time {:.3}s ({} workers); wrote {} and {}",
            report.total_wall_micros() as f64 / 1e6,
            workers,
            json_path.display(),
            csv_path.display()
        );
    }
    // The end-of-run consistency gate: channel growth is infrastructure
    // trouble (the chain leaked ledger slots across instances), which
    // outranks verdict checking under --strict.
    if !report.channels_bounded() {
        for lane in report.lanes() {
            if !lane.channels_bounded() {
                eprintln!(
                    "UNBOUNDED CHANNELS: lane {} {} live/tag={} allocated={} tags={}",
                    lane.index,
                    lane.graph,
                    lane.stats.max_live_per_tag,
                    lane.stats.max_allocated_channels,
                    lane.stats.live_tags,
                );
            }
        }
        return ExitCode::from(2);
    }
    if strict && !report.all_correct() {
        for lane in report.lanes() {
            for (k, record) in lane.instances.iter().enumerate() {
                if !record.verdict.is_correct() {
                    eprintln!(
                        "INCORRECT: lane {} instance {k} {} {} f={} {} ({})",
                        lane.index,
                        lane.graph,
                        lane.algorithm.name(),
                        lane.f,
                        lane.strategy,
                        record.verdict
                    );
                }
            }
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let Some(spec_path) = args.first() else {
        return usage();
    };
    let mut cell: Option<usize> = None;
    let mut timeline = true;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--cell" => {
                let Some(id) = rest.next().and_then(|c| c.parse::<usize>().ok()) else {
                    eprintln!("--cell requires a scenario index");
                    return ExitCode::from(2);
                };
                cell = Some(id);
            }
            "--no-timeline" => timeline = false,
            other => {
                eprintln!("unknown trace flag: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(cell) = cell else {
        eprintln!("lbc trace requires --cell <id> (use `lbc campaign <spec> --list` for ids)");
        return ExitCode::from(2);
    };
    let text = match fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match CampaignSpec::from_json_text(&text) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let scenarios = match spec.expand() {
        Ok(scenarios) => scenarios,
        Err(err) => {
            eprintln!("{spec_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(scenario) = scenarios.get(cell) else {
        eprintln!(
            "cell {cell} is out of range: campaign '{}' expands to {} scenarios (0..={})",
            spec.name,
            scenarios.len(),
            scenarios.len().saturating_sub(1)
        );
        return ExitCode::FAILURE;
    };
    let replay = replay_scenario(scenario);
    let text = replay.render_with(scenario, timeline);
    match io::stdout().lock().write_all(text.as_bytes()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => stdout_failure(&err),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("impossibility") => cmd_impossibility(&args[1..]),
        Some("experiments") => cmd_experiments(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("graphs") => {
            println!("c<N> k<N> circ<N> wheel<N> path<N> q3 fig1a fig1b");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
