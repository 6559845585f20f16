//! Throughput regression guard over `faas-bench/v1` JSON baselines.
//!
//! CI regenerates the hot-path benches in quick mode on every push; this
//! module compares that fresh output against the committed
//! `BENCH_sched.json` and reports every benchmark whose `events_per_sec`
//! dropped by more than a threshold. A row whose `events_per_iter`
//! differs between the two runs is scored on `median_ns` instead: the
//! code now counts different events for the same work (a change that
//! drops no-op events), so its events/sec would move by itself. The check
//! is **advisory** — quick mode is 3 samples on shared CI hardware, so the
//! `bench-guard` binary prints warnings instead of failing the build; a
//! malformed or schema-less input, however, is a hard error (that's a
//! broken harness, not a slow one).

use crate::jsoncheck::{self, Json};

/// Relative throughput drop beyond which a row is flagged (0.2 = a >20%
/// regression).
pub const DEFAULT_THRESHOLD: f64 = 0.2;

/// One benchmark's throughput comparison between two baseline files.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Group the benchmark belongs to (empty for top-level ones).
    pub group: String,
    /// Benchmark name.
    pub name: String,
    /// `events_per_sec` in the reference (committed) baseline, or its
    /// `median_ns` for a recounted row.
    pub baseline: f64,
    /// The same figure in the fresh run.
    pub fresh: f64,
    /// `events_per_iter` in the baseline and in the fresh run, when the
    /// two differ: the row is then scored on `median_ns`.
    pub recount: Option<(u64, u64)>,
}

impl Comparison {
    /// Fractional change in throughput, negative for regressions
    /// (−0.25 = 25% slower); for a recounted row, in iterations per
    /// second.
    pub fn delta(&self) -> f64 {
        let (new, old) = match self.recount {
            None => (self.fresh, self.baseline),
            Some(_) => (self.baseline, self.fresh),
        };
        if old > 0.0 {
            new / old - 1.0
        } else {
            0.0
        }
    }

    /// `true` if this row regressed beyond `threshold`.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.delta() < -threshold
    }
}

/// One result row of a `faas-bench/v1` document: its `(group, name)`
/// key and the optional figures the guard scores.
struct Row {
    group: String,
    name: String,
    events_per_sec: Option<f64>,
    events_per_iter: Option<u64>,
    median_ns: Option<f64>,
}

impl Row {
    /// `self` (baseline) against `fresh` on `events_per_sec`, or on
    /// `median_ns` when the two `events_per_iter` differ; `None` when a
    /// side lacks the figure.
    fn compare(self, fresh: &Row) -> Option<Comparison> {
        let recount = match (self.events_per_iter, fresh.events_per_iter) {
            (Some(b), Some(f)) if b != f => Some((b, f)),
            _ => None,
        };
        let (baseline, fresh) = match recount {
            None => (self.events_per_sec?, fresh.events_per_sec?),
            Some(_) => (self.median_ns?, fresh.median_ns?),
        };
        Some(Comparison {
            group: self.group,
            name: self.name,
            baseline,
            fresh,
            recount,
        })
    }
}

/// Extracts every result row from a `faas-bench/v1` document. Pure
/// wall-clock rows (no throughput declaration — e.g. the cluster-xl
/// section) carry no `events_per_sec`: they still take part in the
/// presence diff, they just never produce a throughput [`Comparison`].
///
/// # Errors
///
/// Rejects malformed JSON, a missing/mismatched `schema` marker, or a
/// missing `results` array.
fn throughput_rows(text: &str, label: &str) -> Result<Vec<Row>, String> {
    let doc = jsoncheck::parse(text).map_err(|e| format!("{label}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("faas-bench/v1") => {}
        other => return Err(format!("{label}: unsupported schema {other:?}")),
    }
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{label}: missing results array"))?;
    let mut rows = Vec::new();
    for r in results {
        let (Some(group), Some(name)) = (
            r.get("group").and_then(Json::as_str),
            r.get("name").and_then(Json::as_str),
        ) else {
            return Err(format!("{label}: result row without group/name"));
        };
        let figure = |key: &str| r.get(key).and_then(Json::as_f64);
        rows.push(Row {
            group: group.to_string(),
            name: name.to_string(),
            events_per_sec: figure("events_per_sec"),
            events_per_iter: figure("events_per_iter").map(|v| v as u64),
            median_ns: figure("median_ns"),
        });
    }
    Ok(rows)
}

/// The full two-document diff: matched rows plus the rows only one side
/// has. New benchmarks (a freshly added bench section with no committed
/// baseline entry yet) and retired ones are **advisory notes**, never
/// errors — baselines trail the code by exactly one regeneration.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardDiff {
    /// Rows present in both documents, in baseline order.
    pub comparisons: Vec<Comparison>,
    /// `(group, name)` rows only the fresh run has (newly added
    /// benchmarks awaiting a baseline regeneration).
    pub fresh_only: Vec<(String, String)>,
    /// `(group, name)` rows only the baseline has (benchmarks that were
    /// removed or renamed).
    pub baseline_only: Vec<(String, String)>,
    /// `(group, name)` rows present in both documents where at least one
    /// side lacks the scored figure (see [`Comparison`]) — wall-clock-only
    /// benches, which have nothing scale-invariant to compare.
    /// Informational.
    pub unscored: Vec<(String, String)>,
}

/// Compares two `faas-bench/v1` documents row-by-row on `events_per_sec`
/// (on `median_ns` where the rows' `events_per_iter` differ), keyed by
/// `(group, name)`, and reports unmatched rows on either side.
/// A row present in only one document is a presence note whether or not
/// it declares a throughput — a freshly added wall-clock bench (no
/// committed baseline yet) lands in `fresh_only`, not in silence.
///
/// # Errors
///
/// Propagates parse/schema errors from either document.
pub fn compare_full(baseline: &str, fresh: &str) -> Result<GuardDiff, String> {
    let base_rows = throughput_rows(baseline, "baseline")?;
    let fresh_rows = throughput_rows(fresh, "fresh")?;
    let mut comparisons = Vec::new();
    let mut baseline_only = Vec::new();
    let mut unscored = Vec::new();
    let mut matched: Vec<(String, String)> = Vec::new();
    for base in base_rows {
        let key = (base.group.clone(), base.name.clone());
        match fresh_rows
            .iter()
            .find(|f| f.group == base.group && f.name == base.name)
        {
            Some(fresh) => {
                matched.push(key.clone());
                match base.compare(fresh) {
                    Some(c) => comparisons.push(c),
                    None => unscored.push(key),
                }
            }
            None => baseline_only.push(key),
        }
    }
    let fresh_only = fresh_rows
        .into_iter()
        .filter(|f| !matched.iter().any(|(g, n)| *g == f.group && *n == f.name))
        .map(|f| (f.group, f.name))
        .collect();
    Ok(GuardDiff {
        comparisons,
        fresh_only,
        baseline_only,
        unscored,
    })
}

/// Compares two `faas-bench/v1` documents row-by-row on `events_per_sec`.
/// Rows present in only one file are dropped here (see [`compare_full`]
/// for the variant that reports them); the comparison is keyed by
/// (group, name).
///
/// # Errors
///
/// Propagates parse/schema errors from either document.
///
/// # Examples
///
/// ```
/// use faas_bench::guard;
///
/// let committed = r#"{"schema": "faas-bench/v1", "quick": false, "results": [
///   {"group": "g", "name": "cfs", "events_per_sec": 1000.0}]}"#;
/// let fresh = r#"{"schema": "faas-bench/v1", "quick": true, "results": [
///   {"group": "g", "name": "cfs", "events_per_sec": 700.0}]}"#;
/// let cmp = guard::compare(committed, fresh).unwrap();
/// assert_eq!(cmp.len(), 1);
/// assert!(cmp[0].regressed(guard::DEFAULT_THRESHOLD));
/// assert!((cmp[0].delta() + 0.3).abs() < 1e-12);
/// ```
pub fn compare(baseline: &str, fresh: &str) -> Result<Vec<Comparison>, String> {
    Ok(compare_full(baseline, fresh)?.comparisons)
}

/// Renders the presence notes of a [`GuardDiff`] — one line per row that
/// exists on only one side or cannot be scored — with **distinct
/// labels** per kind: brand-new rows (present in the fresh run, absent
/// from the baseline) are `new:` lines telling the maintainer to
/// regenerate `baseline_path`, dropped rows (present only in the
/// baseline) are `dropped:` lines, and matched-but-unscorable rows are
/// `unscored:` lines. A new bench section must never read as a removal,
/// and vice versa — the two call for opposite actions (regenerate the
/// baseline vs. prune it).
pub fn notes(diff: &GuardDiff, baseline_path: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for (group, name) in &diff.fresh_only {
        lines.push(format!(
            "  new: {group}/{name} has no baseline entry yet (freshly added benchmark; \
             regenerate {baseline_path})"
        ));
    }
    for (group, name) in &diff.baseline_only {
        lines.push(format!(
            "  dropped: baseline entry {group}/{name} is missing from the fresh run \
             (benchmark removed or renamed; prune {baseline_path})"
        ));
    }
    for (group, name) in &diff.unscored {
        lines.push(format!(
            "  unscored: {group}/{name} is wall-clock only (no events/sec to compare)"
        ));
    }
    lines
}

/// Renders the guard report for `compare`'s output; returns the number of
/// regressions beyond `threshold`.
pub fn report(rows: &[Comparison], threshold: f64, out: &mut dyn std::io::Write) -> usize {
    let mut regressions = 0;
    for row in rows {
        let delta_pct = row.delta() * 100.0;
        let flag = if row.regressed(threshold) {
            regressions += 1;
            "  <-- REGRESSION"
        } else {
            ""
        };
        let (unit, recount) = match row.recount {
            None => ("events/s", String::new()),
            Some((b, f)) => ("ns/iter ", format!("  [events/iter {b} -> {f}]")),
        };
        let _ = writeln!(
            out,
            "  {:<45} {:>12.0} -> {:>12.0} {unit}  ({:+6.1}%){flag}{recount}",
            format!("{}/{}", row.group, row.name),
            row.baseline,
            row.fresh,
            delta_pct,
        );
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, &str, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(g, n, e)| format!(r#"{{"group": "{g}", "name": "{n}", "events_per_sec": {e}}}"#))
            .collect();
        format!(
            r#"{{"schema": "faas-bench/v1", "quick": false, "results": [{}]}}"#,
            body.join(", ")
        )
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let base = doc(&[("g", "a", 1000.0), ("g", "b", 1000.0), ("g", "c", 1000.0)]);
        let fresh = doc(&[("g", "a", 790.0), ("g", "b", 810.0), ("g", "c", 1500.0)]);
        let cmp = compare(&base, &fresh).unwrap();
        let flagged: Vec<&str> = cmp
            .iter()
            .filter(|c| c.regressed(DEFAULT_THRESHOLD))
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(flagged, vec!["a"], "only the >20% drop is flagged");
    }

    #[test]
    fn unmatched_rows_are_reported_not_errored() {
        let base = doc(&[("g", "gone", 1000.0), ("g", "kept", 500.0)]);
        let fresh = doc(&[("g", "kept", 500.0), ("g", "new", 9.0)]);
        let diff = compare_full(&base, &fresh).unwrap();
        assert_eq!(diff.comparisons.len(), 1);
        assert_eq!(diff.comparisons[0].name, "kept");
        assert!(!diff.comparisons[0].regressed(DEFAULT_THRESHOLD));
        assert_eq!(diff.fresh_only, vec![("g".to_string(), "new".to_string())]);
        assert_eq!(
            diff.baseline_only,
            vec![("g".to_string(), "gone".to_string())]
        );
        // The narrow API drops them silently.
        assert_eq!(compare(&base, &fresh).unwrap(), diff.comparisons);
    }

    /// A document mixing throughput rows and wall-clock-only rows
    /// (`None` eps), like `BENCH_sched.json` with the cluster-xl section.
    fn doc_mixed(rows: &[(&str, &str, Option<f64>)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(g, n, e)| match e {
                Some(e) => {
                    format!(r#"{{"group": "{g}", "name": "{n}", "events_per_sec": {e}}}"#)
                }
                None => format!(r#"{{"group": "{g}", "name": "{n}", "median_ns": 5}}"#),
            })
            .collect();
        format!(
            r#"{{"schema": "faas-bench/v1", "quick": false, "results": [{}]}}"#,
            body.join(", ")
        )
    }

    #[test]
    fn new_wall_clock_row_is_a_presence_note_not_invisible() {
        // A freshly added bench section with no events_per_sec and no
        // committed baseline entry (the cluster-xl case) must surface as
        // a clean "new row" note, not vanish from the diff.
        let base = doc(&[("g", "old", 1000.0)]);
        let fresh = doc_mixed(&[("g", "old", Some(1000.0)), ("cluster_xl", "xl_512", None)]);
        let diff = compare_full(&base, &fresh).unwrap();
        assert_eq!(diff.comparisons.len(), 1);
        assert_eq!(
            diff.fresh_only,
            vec![("cluster_xl".to_string(), "xl_512".to_string())]
        );
        assert!(diff.baseline_only.is_empty());
        assert!(diff.unscored.is_empty());
    }

    #[test]
    fn matched_wall_clock_rows_are_unscored_not_compared() {
        let base = doc_mixed(&[("g", "a", Some(1000.0)), ("w", "wall", None)]);
        let fresh = doc_mixed(&[("g", "a", Some(900.0)), ("w", "wall", None)]);
        let diff = compare_full(&base, &fresh).unwrap();
        assert_eq!(diff.comparisons.len(), 1, "only the scored row compares");
        assert_eq!(diff.unscored, vec![("w".to_string(), "wall".to_string())]);
        assert!(diff.fresh_only.is_empty() && diff.baseline_only.is_empty());
        // One side gaining a throughput declaration still can't compare.
        let upgraded = doc_mixed(&[("g", "a", Some(900.0)), ("w", "wall", Some(5.0))]);
        let diff = compare_full(&base, &upgraded).unwrap();
        assert_eq!(diff.unscored, vec![("w".to_string(), "wall".to_string())]);
    }

    #[test]
    fn notes_label_new_and_dropped_rows_distinctly() {
        let base = doc_mixed(&[("g", "gone", Some(1000.0)), ("w", "wall", None)]);
        let fresh = doc_mixed(&[("g", "new", Some(9.0)), ("w", "wall", None)]);
        let diff = compare_full(&base, &fresh).unwrap();
        let lines = notes(&diff, "BENCH_sched.json");
        assert_eq!(lines.len(), 3);
        let new_line = lines.iter().find(|l| l.contains("g/new")).unwrap();
        let dropped_line = lines.iter().find(|l| l.contains("g/gone")).unwrap();
        let unscored_line = lines.iter().find(|l| l.contains("w/wall")).unwrap();
        assert!(
            new_line.trim_start().starts_with("new:"),
            "brand-new row must carry the new label: {new_line}"
        );
        assert!(
            dropped_line.trim_start().starts_with("dropped:"),
            "dropped row must carry the dropped label: {dropped_line}"
        );
        assert!(
            unscored_line.trim_start().starts_with("unscored:"),
            "wall-clock row must carry the unscored label: {unscored_line}"
        );
        assert!(
            new_line.contains("regenerate") && dropped_line.contains("prune"),
            "the two notes must prescribe opposite actions"
        );
    }

    /// A row as the bench harness writes it: events per iteration, the
    /// median iteration time and the throughput they imply.
    fn timed_row(g: &str, n: &str, events: u64, median_ns: u64) -> String {
        let eps = events as f64 * 1e9 / median_ns as f64;
        let figures = format!(
            r#""median_ns": {median_ns}, "events_per_iter": {events}, "events_per_sec": {eps}"#
        );
        format!(r#"{{"group": "{g}", "name": "{n}", {figures}}}"#)
    }

    fn timed_doc(rows: &[String]) -> String {
        format!(
            r#"{{"schema": "faas-bench/v1", "quick": false, "results": [{}]}}"#,
            rows.join(", ")
        )
    }

    #[test]
    fn recounted_rows_compare_median_time_not_events_per_sec() {
        let base = timed_doc(&[
            timed_row("g", "same", 200, 1_000),
            timed_row("g", "fewer_events", 200, 1_000),
            timed_row("g", "fewer_and_slower", 200, 1_000),
        ]);
        // `fewer_events` drops half its no-op events and runs 10% faster:
        // its events/sec falls 44%, its iterations speed up.
        // `fewer_and_slower` takes 50% longer per iteration.
        let fresh = timed_doc(&[
            timed_row("g", "same", 200, 1_100),
            timed_row("g", "fewer_events", 100, 900),
            timed_row("g", "fewer_and_slower", 100, 1_500),
        ]);
        let cmp = compare(&base, &fresh).unwrap();
        assert_eq!(cmp[0].recount, None);
        assert_eq!(
            (cmp[1].recount, cmp[2].recount),
            (Some((200, 100)), Some((200, 100)))
        );
        assert_eq!((cmp[1].baseline, cmp[1].fresh), (1_000.0, 900.0));
        assert!((cmp[1].delta() - 1.0 / 0.9 + 1.0).abs() < 1e-12);
        let flagged: Vec<&str> = cmp
            .iter()
            .filter(|c| c.regressed(DEFAULT_THRESHOLD))
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(flagged, vec!["fewer_and_slower"]);
        let mut buf = Vec::new();
        assert_eq!(report(&cmp, DEFAULT_THRESHOLD, &mut buf), 1);
        let text = String::from_utf8(buf).unwrap();
        let line = text.lines().find(|l| l.contains("g/fewer_events")).unwrap();
        assert!(
            line.contains("ns/iter") && line.contains("[events/iter 200 -> 100]"),
            "a recounted row lists both counts: {line}"
        );
        let line = text.lines().find(|l| l.contains("g/same")).unwrap();
        assert!(line.contains("events/s") && !line.contains("events/iter"));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bad = r#"{"schema": "other/v9", "results": []}"#;
        let good = doc(&[]);
        assert!(compare(bad, &good).is_err());
        assert!(compare(&good, bad).is_err());
        assert!(compare("{nope", &good).is_err());
    }

    #[test]
    fn report_counts_and_renders() {
        let base = doc(&[("", "x", 100.0)]);
        let fresh = doc(&[("", "x", 10.0)]);
        let cmp = compare(&base, &fresh).unwrap();
        let mut buf = Vec::new();
        let n = report(&cmp, DEFAULT_THRESHOLD, &mut buf);
        assert_eq!(n, 1);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("REGRESSION"), "got: {text}");
        assert!(text.contains("-90.0%"), "got: {text}");
    }

    #[test]
    fn committed_baseline_parses_through_the_guard() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
        let text = std::fs::read_to_string(path).expect("committed baseline exists");
        let cmp = compare(&text, &text).expect("baseline is guard-readable");
        assert!(!cmp.is_empty(), "baseline has throughput rows");
        assert!(cmp.iter().all(|c| !c.regressed(DEFAULT_THRESHOLD)));
    }
}
