//! Cell-by-cell comparison of two canonical campaign (or search) reports.
//!
//! `lbc campaign diff <old.json> <new.json>` guards against silent
//! regressions when the engines underneath the campaign executor change
//! (new flood engine, new scheduler, …): scenarios are matched by their
//! full identity — `(family, graph, n, f, algorithm, regime, strategy,
//! faulty, inputs, seed)` — and every deterministic result cell is
//! compared. Reports written before the regime axis existed carry no
//! `regime` field; it defaults to `"sync"` on both sides, so a pre-regime
//! report diffs cleanly against a post-regime run of the same spec. A
//! **verdict regression** (a scenario that was correct in the old report
//! and is incorrect in the new one) makes the comparison fail; any other
//! difference (round counts, transmissions, newly appearing or disappearing
//! scenarios, even incorrect→correct flips) is reported but does not fail
//! the diff.
//!
//! With `--cross-spec` ([`DiffOptions::cross_spec`]) scenarios are matched
//! by their **coordinates** — the identity *without* the derived `seed` —
//! so two reports produced by different spec revisions (renamed grids,
//! added sweeps) still align cell-for-cell: added scenarios are tolerated
//! silently and removed ones demoted to warnings.
//!
//! Canonical **search** reports diff too ([`diff_search_reports`]): cells
//! are matched by `(graph, f, algorithm)` and a cell whose previously-found
//! violation is no longer found (or whose counterexample disappeared) is a
//! regression — the wall that keeps a refactor from quietly losing the
//! ability to rediscover a known violation.

use std::fmt::Write as _;

use lbc_model::json::Json;

/// One differing result cell of a matched scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellChange {
    /// The scenario's identity line (human-readable).
    pub scenario: String,
    /// Name of the differing cell (`correct`, `rounds`, …).
    pub cell: String,
    /// The old report's value, rendered.
    pub old: String,
    /// The new report's value, rendered.
    pub new: String,
    /// Whether this change is a verdict regression (correct → incorrect).
    pub regression: bool,
}

/// Options controlling how two reports are matched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffOptions {
    /// Match scenarios by coordinates (identity without the derived `seed`)
    /// instead of full grid identity, tolerate scenarios that only the new
    /// report has, and demote removed scenarios to warnings. Use when the
    /// two reports come from different revisions of a spec.
    pub cross_spec: bool,
}

/// The outcome of comparing two canonical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignDiff {
    /// Scenarios present in both reports whose result cells differ.
    pub changed: Vec<CellChange>,
    /// Identities present only in the old report.
    pub only_old: Vec<String>,
    /// Identities present only in the new report.
    pub only_new: Vec<String>,
    /// Number of scenarios compared cell-by-cell.
    pub matched: usize,
    /// The options the comparison ran under (affects rendering).
    pub options: DiffOptions,
}

impl CampaignDiff {
    /// Whether any matched scenario regressed from correct to incorrect.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.changed.iter().any(|c| c.regression)
    }

    /// Whether the two reports are cell-identical over the matched
    /// scenarios and cover the same scenario set.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.changed.is_empty() && self.only_old.is_empty() && self.only_new.is_empty()
    }

    /// A human-readable summary, one line per difference. In cross-spec
    /// mode removed scenarios render as warnings and added ones are
    /// expected (a grown spec), so they are only counted.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for change in &self.changed {
            let marker = if change.regression {
                "REGRESSION"
            } else {
                "changed"
            };
            let _ = writeln!(
                out,
                "{marker}: {} {}: {} -> {}",
                change.scenario, change.cell, change.old, change.new
            );
        }
        let removed_marker = if self.options.cross_spec {
            "warning: removed"
        } else {
            "removed"
        };
        for id in &self.only_old {
            let _ = writeln!(out, "{removed_marker}: {id}");
        }
        if !self.options.cross_spec {
            for id in &self.only_new {
                let _ = writeln!(out, "added: {id}");
            }
        }
        let regressions = self.changed.iter().filter(|c| c.regression).count();
        let _ = writeln!(
            out,
            "{} scenarios matched, {} cells changed ({} regressions), {} removed, {} added",
            self.matched,
            self.changed.len(),
            regressions,
            self.only_old.len(),
            self.only_new.len()
        );
        out
    }
}

/// The result cells compared per matched scenario, in report column order.
/// `outcome` is the executor's quarantine label — absent for completed
/// cells (so pre-fault-tolerance reports align), `failed` / `timeout` for
/// quarantined ones.
const CELLS: [&str; 10] = [
    "feasible",
    "agreement",
    "validity",
    "termination",
    "correct",
    "agreed",
    "rounds",
    "transmissions",
    "deliveries",
    "outcome",
];

/// Compares two canonical reports parsed from their JSON text, matching
/// scenarios by full grid identity.
///
/// # Errors
///
/// Returns a message when either document is not a canonical campaign
/// report (missing or malformed `records`).
pub fn diff_reports(old: &Json, new: &Json) -> Result<CampaignDiff, String> {
    diff_reports_with(old, new, DiffOptions::default())
}

/// Compares two canonical reports under the given matching options.
///
/// # Errors
///
/// Returns a message when either document is not a canonical campaign
/// report (missing or malformed `records`).
pub fn diff_reports_with(
    old: &Json,
    new: &Json,
    options: DiffOptions,
) -> Result<CampaignDiff, String> {
    let old_records = indexed_records(old, "old", options)?;
    let new_records = indexed_records(new, "new", options)?;
    let new_by_identity: lbc_model::fx::FxHashMap<&str, &Json> = new_records
        .iter()
        .map(|(identity, record)| (identity.as_str(), *record))
        .collect();
    let old_identities: std::collections::HashSet<&str> = old_records
        .iter()
        .map(|(identity, _)| identity.as_str())
        .collect();

    let mut diff = CampaignDiff {
        options,
        ..CampaignDiff::default()
    };
    for (identity, old_record) in &old_records {
        let Some(new_record) = new_by_identity.get(identity.as_str()) else {
            diff.only_old.push(identity.clone());
            continue;
        };
        diff.matched += 1;
        for cell in CELLS {
            let old_value = render_cell(old_record.get(cell));
            let new_value = render_cell(new_record.get(cell));
            if old_value != new_value {
                let regression = match cell {
                    "correct" => {
                        old_record.get(cell).and_then(Json::as_bool) == Some(true)
                            && new_record.get(cell).and_then(Json::as_bool) == Some(false)
                    }
                    // A cell that used to complete (no outcome field, or an
                    // explicit "completed") and now fails or times out is
                    // infrastructure rot, walled like a verdict flip.
                    "outcome" => {
                        matches!(
                            old_record.get(cell).and_then(Json::as_str),
                            None | Some("completed")
                        ) && matches!(
                            new_record.get(cell).and_then(Json::as_str),
                            Some("failed" | "timeout")
                        )
                    }
                    _ => false,
                };
                diff.changed.push(CellChange {
                    scenario: identity.clone(),
                    cell: cell.to_string(),
                    old: old_value,
                    new: new_value,
                    regression,
                });
            }
        }
    }
    for (identity, _) in &new_records {
        if !old_identities.contains(identity.as_str()) {
            diff.only_new.push(identity.clone());
        }
    }
    Ok(diff)
}

/// Convenience: parse both texts and diff, auto-detecting the report kind
/// (a canonical search report carries a `cells` array, a campaign report a
/// `records` array).
///
/// # Errors
///
/// Returns a message when either text fails to parse, the two documents are
/// different report kinds, or neither is a canonical report.
pub fn diff_report_texts(old: &str, new: &str) -> Result<CampaignDiff, String> {
    diff_report_texts_with(old, new, DiffOptions::default())
}

/// Like [`diff_report_texts`], with explicit matching options.
///
/// # Errors
///
/// Same conditions as [`diff_report_texts`].
pub fn diff_report_texts_with(
    old: &str,
    new: &str,
    options: DiffOptions,
) -> Result<CampaignDiff, String> {
    let old = Json::parse(old).map_err(|e| format!("old report: {e}"))?;
    let new = Json::parse(new).map_err(|e| format!("new report: {e}"))?;
    let is_search = |doc: &Json| doc.get("cells").is_some() && doc.get("records").is_none();
    match (is_search(&old), is_search(&new)) {
        (true, true) => diff_search_reports(&old, &new, options),
        (false, false) => diff_reports_with(&old, &new, options),
        _ => Err("cannot diff a search report against a campaign report".to_string()),
    }
}

/// The per-cell result fields compared between two search reports.
const SEARCH_CELLS: [&str; 3] = ["violation", "feasible", "counterexample_found"];

/// Compares two canonical **search** reports cell-by-cell. Cells are
/// matched by `(graph, f, algorithm)` coordinates (search cells have no
/// derived seed in their identity, so the cross-spec option only affects
/// how removed cells render). A cell whose previously-found violation is no
/// longer found — or whose minimized counterexample disappeared — is a
/// **regression**; severity shifts within the same verdict are reported as
/// plain changes.
///
/// # Errors
///
/// Returns a message when either document is not a canonical search report.
pub fn diff_search_reports(
    old: &Json,
    new: &Json,
    options: DiffOptions,
) -> Result<CampaignDiff, String> {
    let old_cells = indexed_search_cells(old, "old")?;
    let new_cells = indexed_search_cells(new, "new")?;
    let new_by_identity: lbc_model::fx::FxHashMap<&str, &Json> = new_cells
        .iter()
        .map(|(identity, cell)| (identity.as_str(), *cell))
        .collect();
    let old_identities: std::collections::HashSet<&str> = old_cells
        .iter()
        .map(|(identity, _)| identity.as_str())
        .collect();

    let flattened = |cell: &Json, field: &str| -> String {
        match field {
            "counterexample_found" => render_cell(Some(&Json::Bool(!matches!(
                cell.get("counterexample"),
                None | Some(Json::Null)
            )))),
            _ => render_cell(cell.get(field)),
        }
    };

    let mut diff = CampaignDiff {
        options,
        ..CampaignDiff::default()
    };
    for (identity, old_cell) in &old_cells {
        let Some(new_cell) = new_by_identity.get(identity.as_str()) else {
            diff.only_old.push(identity.clone());
            continue;
        };
        diff.matched += 1;
        for field in SEARCH_CELLS {
            let old_value = flattened(old_cell, field);
            let new_value = flattened(new_cell, field);
            if old_value != new_value {
                // Losing a found violation (or its counterexample) is the
                // regression; *gaining* one is the search getting stronger.
                let regression = (field == "violation" || field == "counterexample_found")
                    && old_value == "true"
                    && new_value == "false";
                diff.changed.push(CellChange {
                    scenario: identity.clone(),
                    cell: field.to_string(),
                    old: old_value,
                    new: new_value,
                    regression,
                });
            }
        }
        // The violation *bitmask* is also walled: a qualitative downgrade
        // (e.g. an agreement break, weight 4, replaced by a mere
        // termination failure, weight 1) keeps the boolean `violation` flag
        // true in both reports, yet the original violation was lost.
        // Dissent/rounds/volume drifts are informational.
        fn severity_path<'a>(cell: &'a Json, field: &str) -> Option<&'a Json> {
            cell.get("best")
                .and_then(|best| best.get("severity"))
                .and_then(|severity| severity.get(field))
        }
        for severity_field in ["violation", "dissent", "rounds", "volume"] {
            let old_raw = severity_path(old_cell, severity_field);
            let new_raw = severity_path(new_cell, severity_field);
            let old_value = render_cell(old_raw);
            let new_value = render_cell(new_raw);
            if old_value != new_value {
                let regression = severity_field == "violation"
                    && match (
                        old_raw.and_then(Json::as_u64),
                        new_raw.and_then(Json::as_u64),
                    ) {
                        (Some(old_mask), Some(new_mask)) => new_mask < old_mask && old_mask > 0,
                        _ => false,
                    };
                diff.changed.push(CellChange {
                    scenario: identity.clone(),
                    cell: format!("severity.{severity_field}"),
                    old: old_value,
                    new: new_value,
                    regression,
                });
            }
        }
    }
    for (identity, _) in &new_cells {
        if !old_identities.contains(identity.as_str()) {
            diff.only_new.push(identity.clone());
        }
    }
    Ok(diff)
}

/// Extracts `(identity, cell)` pairs from a canonical search report, in
/// cell order, keyed by `(graph, f, algorithm)`.
fn indexed_search_cells<'a>(
    report: &'a Json,
    label: &str,
) -> Result<Vec<(String, &'a Json)>, String> {
    let cells = report
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{label} report: missing 'cells' array"))?;
    let mut indexed = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut identity = String::new();
        for field in ["graph", "f", "algorithm", "regime"] {
            let value = match cell.get(field) {
                Some(value) => render_cell(Some(value)),
                // Pre-regime search reports have no regime column; every
                // cell they contain ran synchronously.
                None if field == "regime" => "\"sync\"".to_string(),
                None => {
                    return Err(format!("{label} report: search cell missing '{field}'"));
                }
            };
            let _ = write!(identity, "{field}={value} ");
        }
        indexed.push((identity.trim_end().to_string(), cell));
    }
    Ok(indexed)
}

/// Extracts `(identity, record)` pairs from a canonical report, in record
/// order. The identity covers every cell that determines the scenario, so
/// two reports produced from the same spec (even by different engine
/// versions) match record-for-record; in cross-spec mode the derived `seed`
/// is excluded so reports from different spec revisions still align by
/// coordinates. Records with byte-identical identities (a spec can repeat
/// a grid cell) are disambiguated by an occurrence counter, so a lost
/// duplicate shows up as removed instead of silently aliasing onto its
/// twin.
fn indexed_records<'a>(
    report: &'a Json,
    label: &str,
    options: DiffOptions,
) -> Result<Vec<(String, &'a Json)>, String> {
    let records = report
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{label} report: missing 'records' array"))?;
    let mut indexed: Vec<(String, &Json)> = Vec::with_capacity(records.len());
    let mut occurrences: lbc_model::fx::FxHashMap<String, usize> = Default::default();
    let identity_fields: &[&str] = if options.cross_spec {
        &[
            "family",
            "graph",
            "n",
            "f",
            "algorithm",
            "regime",
            "strategy",
            "faulty",
            "inputs",
        ]
    } else {
        &[
            "family",
            "graph",
            "n",
            "f",
            "algorithm",
            "regime",
            "strategy",
            "faulty",
            "inputs",
            "seed",
        ]
    };
    for record in records {
        let mut identity = String::new();
        for &field in identity_fields {
            let value = match record.get(field) {
                Some(value) => render_cell(Some(value)),
                // Pre-regime reports carry no regime field: every record
                // they contain ran synchronously, so the identities still
                // align against a post-regime run of the same spec.
                None if field == "regime" => "\"sync\"".to_string(),
                None => {
                    return Err(format!("{label} report: record missing '{field}'"));
                }
            };
            let _ = write!(identity, "{field}={value} ");
        }
        let mut identity = identity.trim_end().to_string();
        let occurrence = occurrences.entry(identity.clone()).or_insert(0);
        *occurrence += 1;
        if *occurrence > 1 {
            let _ = write!(identity, " (occurrence {occurrence})");
        }
        indexed.push((identity, record));
    }
    Ok(indexed)
}

fn render_cell(value: Option<&Json>) -> String {
    match value {
        None => "<missing>".to_string(),
        Some(json) => json.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_campaign;
    use crate::spec::{
        CampaignSpec, FRange, FaultPolicy, GraphFamily, InputPolicy, RegimeSpec, SizeSpec,
        StrategySpec, SweepSpec,
    };
    use lbc_consensus::AlgorithmKind;

    fn sample_report_json() -> Json {
        let spec = CampaignSpec {
            name: "diff-unit".to_string(),
            seed: 11,
            sweeps: vec![SweepSpec {
                family: GraphFamily::Cycle,
                sizes: SizeSpec::List(vec![5]),
                f: FRange::exactly(1),
                algorithms: vec![AlgorithmKind::Algorithm1],
                regimes: RegimeSpec::default_axis(),
                strategies: vec![StrategySpec::TamperRelays],
                faults: FaultPolicy::Exhaustive,
                inputs: InputPolicy::Alternating,
            }],
            search: None,
            limits: None,
            serve: None,
        };
        let text = run_campaign(&spec, 2).unwrap().to_json().to_string();
        Json::parse(&text).unwrap()
    }

    #[test]
    fn self_diff_is_clean() {
        let report = sample_report_json();
        let diff = diff_reports(&report, &report).unwrap();
        assert!(diff.is_clean());
        assert!(!diff.has_regressions());
        assert_eq!(diff.matched, 5);
        assert!(diff
            .render()
            .contains("5 scenarios matched, 0 cells changed"));
    }

    /// Mutates a cell of the first record of a parsed report.
    fn patch_first_record(report: &mut Json, cell: &str, value: Json) {
        let Json::Obj(fields) = report else {
            panic!("report is an object");
        };
        for (key, field) in fields.iter_mut() {
            if key == "records" {
                let Json::Arr(records) = field else {
                    panic!("records is an array");
                };
                let Json::Obj(record) = &mut records[0] else {
                    panic!("record is an object");
                };
                for (record_key, record_value) in record.iter_mut() {
                    if record_key == cell {
                        *record_value = value;
                        return;
                    }
                }
            }
        }
        panic!("cell {cell} not found");
    }

    #[test]
    fn verdict_regressions_are_flagged() {
        let old = sample_report_json();
        let mut new = old.clone();
        patch_first_record(&mut new, "correct", Json::Bool(false));
        patch_first_record(&mut new, "agreement", Json::Bool(false));
        let diff = diff_reports(&old, &new).unwrap();
        assert!(diff.has_regressions());
        assert!(!diff.is_clean());
        assert!(diff.render().contains("REGRESSION"));
        // Exactly one regression (`correct`); `agreement` is a plain change.
        assert_eq!(diff.changed.iter().filter(|c| c.regression).count(), 1);
        assert_eq!(diff.changed.len(), 2);
        // An incorrect→correct flip is *not* a regression.
        let recovered = diff_reports(&new, &old).unwrap();
        assert!(!recovered.has_regressions());
        assert_eq!(recovered.changed.len(), 2);
    }

    #[test]
    fn newly_quarantined_cells_are_regressions() {
        let old = sample_report_json();
        let mut new = old.clone();
        // Quarantined records carry an explicit outcome field; completed
        // records omit it, so the old side renders as <missing>.
        if let Json::Obj(fields) = &mut new {
            for (key, value) in fields.iter_mut() {
                if key == "records" {
                    if let Json::Arr(records) = value {
                        if let Json::Obj(record) = &mut records[0] {
                            record.push(("outcome".to_string(), Json::Str("failed".to_string())));
                        }
                    }
                }
            }
        }
        let diff = diff_reports(&old, &new).unwrap();
        assert!(diff.has_regressions(), "{}", diff.render());
        assert!(diff
            .changed
            .iter()
            .any(|c| c.cell == "outcome" && c.regression));
        // The recovery direction (failed -> completed) is not a regression.
        let recovered = diff_reports(&new, &old).unwrap();
        assert!(!recovered.has_regressions());
    }

    #[test]
    fn non_regression_changes_do_not_fail() {
        let old = sample_report_json();
        let mut new = old.clone();
        patch_first_record(&mut new, "rounds", Json::Num(31.0));
        let diff = diff_reports(&old, &new).unwrap();
        assert!(!diff.has_regressions());
        assert!(!diff.is_clean());
        assert!(diff.changed.iter().all(|c| c.cell == "rounds"));
    }

    #[test]
    fn added_and_removed_scenarios_are_reported() {
        let old = sample_report_json();
        // Drop the last record from the new report by slicing the parsed doc.
        let mut new = old.clone();
        if let Json::Obj(fields) = &mut new {
            for (key, value) in fields.iter_mut() {
                if key == "records" {
                    if let Json::Arr(records) = value {
                        records.pop();
                    }
                }
            }
        }
        let diff = diff_reports(&old, &new).unwrap();
        assert_eq!(diff.only_old.len(), 1);
        assert!(diff.only_new.is_empty());
        assert!(!diff.has_regressions());
        assert!(diff.render().contains("removed: "));
    }

    #[test]
    fn duplicate_identities_do_not_alias() {
        let old = sample_report_json();
        // Duplicate every record (as a spec repeating a grid cell would),
        // then drop one duplicate from the new report: the loss must show
        // up as a removed scenario, not vanish into its twin.
        let mut doubled = old.clone();
        if let Json::Obj(fields) = &mut doubled {
            for (key, value) in fields.iter_mut() {
                if key == "records" {
                    if let Json::Arr(records) = value {
                        let copy = records.clone();
                        records.extend(copy);
                    }
                }
            }
        }
        let mut shrunk = doubled.clone();
        if let Json::Obj(fields) = &mut shrunk {
            for (key, value) in fields.iter_mut() {
                if key == "records" {
                    if let Json::Arr(records) = value {
                        records.pop();
                    }
                }
            }
        }
        let clean = diff_reports(&doubled, &doubled).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.matched, 10);
        let lossy = diff_reports(&doubled, &shrunk).unwrap();
        assert_eq!(lossy.only_old.len(), 1);
        assert!(lossy.only_old[0].contains("(occurrence 2)"));
    }

    #[test]
    fn malformed_reports_error() {
        assert!(diff_report_texts("{}", "{}").is_err());
        assert!(diff_report_texts("not json", "{}").is_err());
        // Mixed report kinds are rejected, not silently mismatched.
        assert!(diff_report_texts_with(
            r#"{"cells": []}"#,
            r#"{"records": []}"#,
            DiffOptions::default()
        )
        .is_err());
    }

    /// Re-runs the sample spec with a different campaign seed: every derived
    /// scenario seed changes, so the strict identity match finds nothing
    /// while the cross-spec coordinate match aligns all cells.
    #[test]
    fn cross_spec_matches_by_coordinates_not_seed() {
        let old = sample_report_json();
        let reseeded = {
            let spec = CampaignSpec {
                name: "diff-unit".to_string(),
                seed: 12, // the sample uses seed 11
                sweeps: vec![SweepSpec {
                    family: GraphFamily::Cycle,
                    sizes: SizeSpec::List(vec![5]),
                    f: FRange::exactly(1),
                    algorithms: vec![AlgorithmKind::Algorithm1],
                    regimes: RegimeSpec::default_axis(),
                    strategies: vec![StrategySpec::TamperRelays],
                    faults: FaultPolicy::Exhaustive,
                    inputs: InputPolicy::Alternating,
                }],
                search: None,
                limits: None,
                serve: None,
            };
            let text = run_campaign(&spec, 2).unwrap().to_json().to_string();
            Json::parse(&text).unwrap()
        };
        let strict = diff_reports(&old, &reseeded).unwrap();
        assert_eq!(strict.matched, 0, "derived seeds differ, nothing matches");
        assert_eq!(strict.only_old.len(), 5);
        let cross = diff_reports_with(&old, &reseeded, DiffOptions { cross_spec: true }).unwrap();
        assert_eq!(cross.matched, 5);
        assert!(cross.only_old.is_empty());
        assert!(!cross.has_regressions());
    }

    #[test]
    fn cross_spec_tolerates_added_grids_and_warns_on_removed_cells() {
        let old = sample_report_json();
        let mut grown = old.clone();
        // Duplicate the records under fresh identities by renaming the graph
        // (an added grid), and drop one original record (a removed cell).
        if let Json::Obj(fields) = &mut grown {
            for (key, value) in fields.iter_mut() {
                if key == "records" {
                    if let Json::Arr(records) = value {
                        let mut added = records[0].clone();
                        if let Json::Obj(record) = &mut added {
                            for (record_key, record_value) in record.iter_mut() {
                                if record_key == "graph" {
                                    *record_value = Json::Str("C9".to_string());
                                }
                            }
                        }
                        records.pop();
                        records.push(added);
                    }
                }
            }
        }
        let cross = diff_reports_with(&old, &grown, DiffOptions { cross_spec: true }).unwrap();
        assert_eq!(cross.matched, 4);
        assert_eq!(cross.only_old.len(), 1);
        assert_eq!(cross.only_new.len(), 1);
        assert!(!cross.has_regressions());
        let rendered = cross.render();
        assert!(rendered.contains("warning: removed"), "{rendered}");
        assert!(!rendered.contains("added: "), "{rendered}");
    }

    fn sample_search_report_json() -> Json {
        let spec = CampaignSpec {
            name: "search-diff-unit".to_string(),
            seed: 3,
            sweeps: vec![SweepSpec {
                family: GraphFamily::Cycle,
                sizes: SizeSpec::List(vec![5]),
                f: FRange { from: 1, to: 2 },
                algorithms: vec![AlgorithmKind::Algorithm1],
                regimes: RegimeSpec::default_axis(),
                strategies: vec![StrategySpec::TamperRelays],
                faults: FaultPolicy::WorstCase,
                inputs: InputPolicy::Alternating,
            }],
            search: Some(crate::search::SearchSpec {
                budget: 20,
                beam: 2,
                mutations: 2,
                rounds: 1,
            }),
            limits: None,
            serve: None,
        };
        let text = crate::run_search_resumed(&spec, None, 2)
            .unwrap()
            .to_json()
            .to_string();
        Json::parse(&text).unwrap()
    }

    #[test]
    fn search_self_diff_is_clean_and_lost_violations_regress() {
        let report = sample_search_report_json();
        let clean = diff_search_reports(&report, &report, DiffOptions::default()).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.matched, 2);

        // Fabricate a lost violation: flip the f=2 cell's flag and null its
        // counterexample.
        let mut lost = report.clone();
        if let Json::Obj(fields) = &mut lost {
            for (key, value) in fields.iter_mut() {
                if key == "cells" {
                    if let Json::Arr(cells) = value {
                        for cell in cells.iter_mut() {
                            let Json::Obj(cell_fields) = cell else {
                                panic!("cell is an object")
                            };
                            let violating = cell_fields
                                .iter()
                                .any(|(k, v)| k == "violation" && *v == Json::Bool(true));
                            if !violating {
                                continue;
                            }
                            for (cell_key, cell_value) in cell_fields.iter_mut() {
                                if cell_key == "violation" {
                                    *cell_value = Json::Bool(false);
                                }
                                if cell_key == "counterexample" {
                                    *cell_value = Json::Null;
                                }
                            }
                        }
                    }
                }
            }
        }
        let diff = diff_search_reports(&report, &lost, DiffOptions::default()).unwrap();
        assert!(diff.has_regressions(), "{}", diff.render());
        // Gaining a violation is an improvement, not a regression.
        let improved = diff_search_reports(&lost, &report, DiffOptions::default()).unwrap();
        assert!(!improved.has_regressions());
        assert!(!improved.is_clean());
    }
}
