//! The scenario registry behind the unified `faas-eval` runner.
//!
//! Every figure, table, ablation and tool of the paper's evaluation
//! registers a self-describing [`Scenario`] in one central table
//! ([`all`]): a stable id, a human title, the paper reference, filter
//! tags, a [`RuntimeClass`], and a run function that writes its output
//! into an abstract sink. The `faas-eval` binary lists, filters
//! (`--tag`, `--id`) and runs scenarios from this table, fanning
//! independent scenarios across [`crate::par`] workers; its output is
//! byte-identical at any `BENCH_THREADS` setting.
//!
//! Adding a scenario is adding one entry to the table (and its run
//! function under `src/scenarios/`) — not a new binary.
//!
//! # Examples
//!
//! ```
//! use faas_bench::scenario;
//!
//! // Every paper figure/table/ablation/tool — plus the cluster,
//! // streaming cluster-xl, overload, chaos and health scenarios — is
//! // registered.
//! assert_eq!(scenario::all().len(), 37);
//!
//! // Lookup by id, filter by tag (runtime classes double as tags).
//! let table1 = scenario::find("table1").expect("registered");
//! assert!(table1.has_tag("table"));
//! assert!(!scenario::with_tag("quick").is_empty());
//!
//! // Run a quick scenario into any writer.
//! let mut buf = Vec::new();
//! scenario::find("fig02").unwrap().run_to(&mut buf, &[]).unwrap();
//! assert!(String::from_utf8(buf).unwrap().contains("Fig. 2"));
//! ```

use std::io::{self, Write};

use crate::scenarios;

/// How long a scenario takes at full scale (informational; `SCALE_DIV`
/// shrinks any scenario for a smoke run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeClass {
    /// Sub-second: trace/analysis only, or a single tiny simulation.
    Quick,
    /// Seconds to minutes: one or more full-scale simulations.
    Full,
}

impl RuntimeClass {
    /// The lowercase label used in listings and tag matching.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeClass::Quick => "quick",
            RuntimeClass::Full => "full",
        }
    }
}

/// A scenario failure: either bad user input (usage) or a sink error.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario's arguments were missing or invalid; `faas-eval`
    /// prints the message to stderr.
    Usage(String),
    /// An I/O error from the output sink or a file the scenario touches.
    Io(io::Error),
}

impl From<io::Error> for ScenarioError {
    fn from(e: io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Usage(msg) => write!(f, "{msg}"),
            ScenarioError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// What a scenario's run function returns.
pub type ScenarioResult = Result<(), ScenarioError>;

/// The execution context handed to a scenario: the output sink and the
/// scenario's own CLI arguments (everything after `--` for
/// `faas-eval --id`).
pub struct ScenarioCtx<'a> {
    /// Where the scenario writes the series/rows a plot would show.
    pub out: &'a mut dyn Write,
    /// Scenario-specific arguments (empty for most scenarios).
    pub args: &'a [String],
}

/// One registered experiment of the evaluation.
pub struct Scenario {
    /// Stable, kebab-case id (`fig11`, `table1`, `ablation-cost`, …).
    pub id: &'static str,
    /// One-line human description.
    pub title: &'static str,
    /// Where in the paper the output belongs (`Fig. 11`, `Table I`, or
    /// the workspace doc that motivates a supporting run).
    pub paper_ref: &'static str,
    /// Filter tags (`figure`, `table`, `ablation`, `tool`, workload and
    /// theme tags). The [`RuntimeClass`] label also matches as a tag.
    pub tags: &'static [&'static str],
    /// Expected runtime at full scale.
    pub class: RuntimeClass,
    /// Usage string for scenarios that take arguments or have filesystem
    /// side effects (`None` for the rest). Batch runs (`--tag`/`--all`)
    /// skip these — they only run explicitly via `--id`.
    pub usage: Option<&'static str>,
    /// The run function (see `src/scenarios/`).
    pub run: fn(&mut ScenarioCtx<'_>) -> ScenarioResult,
}

impl Scenario {
    /// `true` if `tag` matches one of the scenario's tags or its runtime
    /// class label.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.class.label() == tag || self.tags.contains(&tag)
    }

    /// Runs the scenario, writing its stdout-equivalent into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Usage`] for missing/invalid `args` and
    /// [`ScenarioError::Io`] for sink or file errors.
    pub fn run_to(&self, out: &mut dyn Write, args: &[String]) -> ScenarioResult {
        (self.run)(&mut ScenarioCtx { out, args })
    }
}

/// The central registry, in presentation order (paper order, then the
/// supporting runs and tools).
static SCENARIOS: &[Scenario] = &[
    Scenario {
        id: "intro",
        title: "§I motivating example: 1 ms of CPU billed as a full minute",
        paper_ref: "§I",
        tags: &["example", "cost"],
        class: RuntimeClass::Quick,
        usage: None,
        run: scenarios::figures::intro,
    },
    Scenario {
        id: "fig01",
        title: "cost of FIFO vs CFS by memory size (CFS >10x)",
        paper_ref: "Fig. 1",
        tags: &["figure", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig01,
    },
    Scenario {
        id: "fig02",
        title: "trace characteristics: duration CDF + bursty arrivals",
        paper_ref: "Fig. 2",
        tags: &["figure", "trace"],
        class: RuntimeClass::Quick,
        usage: None,
        run: scenarios::figures::fig02,
    },
    Scenario {
        id: "fig04",
        title: "FIFO vs CFS on all three metrics (Obs. 2)",
        paper_ref: "Fig. 4",
        tags: &["figure", "cdf", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig04,
    },
    Scenario {
        id: "fig05",
        title: "FIFO vs FIFO+100ms preemption limit (Obs. 3)",
        paper_ref: "Fig. 5",
        tags: &["figure", "cdf", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig05,
    },
    Scenario {
        id: "fig06",
        title: "FIFO vs the hybrid 25/25 split (Obs. 4)",
        paper_ref: "Fig. 6",
        tags: &["figure", "cdf", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig06,
    },
    Scenario {
        id: "fig10",
        title: "2-minute sample vs long trace (KS representativeness)",
        paper_ref: "Fig. 10",
        tags: &["figure", "trace"],
        class: RuntimeClass::Quick,
        usage: None,
        run: scenarios::figures::fig10,
    },
    Scenario {
        id: "fig11",
        title: "execution CDF across FIFO/CFS core splits vs plain CFS",
        paper_ref: "Fig. 11",
        tags: &["figure", "sweep", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig11,
    },
    Scenario {
        id: "fig12",
        title: "hybrid(25/25) vs CFS on all three metrics",
        paper_ref: "Fig. 12",
        tags: &["figure", "cdf", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig12,
    },
    Scenario {
        id: "fig13",
        title: "per-core preemption counts, hybrid vs CFS",
        paper_ref: "Fig. 13",
        tags: &["figure", "w2", "hybrid", "preemption"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig13,
    },
    Scenario {
        id: "fig14",
        title: "FIFO/CFS group utilization over time (hybrid, W2)",
        paper_ref: "Fig. 14",
        tags: &["figure", "timeline", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::timelines::fig14,
    },
    Scenario {
        id: "fig15",
        title: "execution time vs adaptive-limit percentile (p25..p95)",
        paper_ref: "Fig. 15",
        tags: &["figure", "sweep", "w2", "adaptive"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig15,
    },
    Scenario {
        id: "fig16",
        title: "adaptive-limit timeline at p75 (10-minute workload)",
        paper_ref: "Fig. 16",
        tags: &["figure", "timeline", "w10", "adaptive"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::timelines::fig16,
    },
    Scenario {
        id: "fig17",
        title: "adaptive-limit timeline at p95 (10-minute workload)",
        paper_ref: "Fig. 17",
        tags: &["figure", "timeline", "w10", "adaptive"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::timelines::fig17,
    },
    Scenario {
        id: "fig18",
        title: "fixed 25/25 groups vs dynamic rightsizing",
        paper_ref: "Fig. 18",
        tags: &["figure", "cdf", "w2", "rightsizing"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig18,
    },
    Scenario {
        id: "fig19",
        title: "rightsizing timeline: utilization + FIFO core count",
        paper_ref: "Fig. 19",
        tags: &["figure", "timeline", "w10", "rightsizing"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::timelines::fig19,
    },
    Scenario {
        id: "fig20",
        title: "cost by memory size: hybrid vs FIFO vs CFS",
        paper_ref: "Fig. 20",
        tags: &["figure", "cost", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig20,
    },
    Scenario {
        id: "fig21",
        title: "Firecracker fleet metrics, hybrid vs CFS (with failures)",
        paper_ref: "Fig. 21",
        tags: &["figure", "firecracker", "wfc"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::firecracker::fig21,
    },
    Scenario {
        id: "fig22",
        title: "Firecracker fleet cost, hybrid vs CFS",
        paper_ref: "Fig. 22",
        tags: &["figure", "firecracker", "wfc", "cost"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::firecracker::fig22,
    },
    Scenario {
        id: "fig23",
        title: "cost vs p99 response for the whole scheduler zoo",
        paper_ref: "Fig. 23",
        tags: &["figure", "sweep", "w2", "cost"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::figures::fig23,
    },
    Scenario {
        id: "table1",
        title: "p99 response/execution/turnaround + cost for FIFO/CFS/hybrid",
        paper_ref: "Table I",
        tags: &["table", "cost", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::tables::table1,
    },
    Scenario {
        id: "deviation1",
        title: "500 ms limit flips the Fig. 6 p99-response ordering",
        paper_ref: "EXPERIMENTS dev. 1",
        tags: &["supporting", "w2", "hybrid"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::tables::deviation1,
    },
    Scenario {
        id: "ablation-cost",
        title: "context-switch cost model vs the CFS/FIFO cost ratio",
        paper_ref: "DESIGN.md",
        tags: &["ablation", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::ablations::ablation_cost,
    },
    Scenario {
        id: "ablation-design",
        title: "design-choice matrix: placement, window, rightsizing, hints, snapshots",
        paper_ref: "DESIGN.md",
        tags: &["ablation", "sweep", "w2", "wfc"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::ablations::ablation_design,
    },
    Scenario {
        id: "cluster01",
        title: "dispatch policies on a 4-machine fleet (hybrid and fifo nodes)",
        paper_ref: "DESIGN.md cluster",
        tags: &["cluster", "sweep", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::cluster::cluster01,
    },
    Scenario {
        id: "cluster02",
        title: "dispatch policies on a 16-machine fleet (hybrid nodes)",
        paper_ref: "DESIGN.md cluster",
        tags: &["cluster", "sweep", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::cluster::cluster02,
    },
    Scenario {
        id: "cluster03",
        title: "dispatch policies on a 64-machine fleet (hybrid nodes)",
        paper_ref: "DESIGN.md cluster",
        tags: &["cluster", "sweep", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::cluster::cluster03,
    },
    Scenario {
        id: "cluster-xl-512",
        title: "streaming 512-machine fleet over an hour-scale trace",
        paper_ref: "DESIGN.md streaming",
        tags: &["cluster-xl", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::cluster::cluster_xl_512,
    },
    Scenario {
        id: "cluster-xl-1024",
        title: "streaming 1024-machine fleet over an hour-scale trace",
        paper_ref: "DESIGN.md streaming",
        tags: &["cluster-xl", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::cluster::cluster_xl_1024,
    },
    Scenario {
        id: "overload",
        title: "middleware stacks on a 4-machine fleet at 2x capacity",
        paper_ref: "DESIGN.md overload",
        tags: &["overload", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::overload::overload,
    },
    Scenario {
        id: "brownout",
        title: "streaming 16-machine fleet at 4x capacity: shed or drown",
        paper_ref: "DESIGN.md overload",
        tags: &["overload", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::overload::brownout,
    },
    Scenario {
        id: "crash-storm",
        title: "16-machine fleet under a seeded crash/straggler/storm plan",
        paper_ref: "DESIGN.md chaos",
        tags: &["chaos", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::chaos::crash_storm,
    },
    Scenario {
        id: "autoscale",
        title: "streaming autoscaler vs pinned fleets on a diurnal trace",
        paper_ref: "DESIGN.md chaos",
        tags: &["chaos", "elastic", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::chaos::autoscale,
    },
    Scenario {
        id: "straggler-outliers",
        title: "half-rate 16-machine fleet: ejection + hedging vs 8x stragglers",
        paper_ref: "DESIGN.md health",
        tags: &["health", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::health::straggler_outliers,
    },
    Scenario {
        id: "retry-backoff",
        title: "crash replay: instant retry vs exponential backoff + ejection",
        paper_ref: "DESIGN.md health",
        tags: &["health", "cost", "w2"],
        class: RuntimeClass::Full,
        usage: None,
        run: scenarios::health::retry_backoff,
    },
    Scenario {
        id: "make-workload",
        title: "write the W2/W10/Firecracker workload CSVs (Fig. 9 ①)",
        paper_ref: "Fig. 9",
        tags: &["tool", "trace"],
        class: RuntimeClass::Quick,
        usage: Some("usage: make-workload [output_dir]"),
        run: scenarios::tools::make_workload,
    },
    Scenario {
        id: "compare",
        title: "replay a workload CSV under every scheduler in the repo",
        paper_ref: "Table I style",
        tags: &["tool", "sweep"],
        class: RuntimeClass::Full,
        usage: Some("usage: compare <workload.csv> [cores=50]"),
        run: scenarios::tools::compare,
    },
];

/// Every registered scenario, in presentation order.
pub fn all() -> &'static [Scenario] {
    SCENARIOS
}

/// Looks a scenario up by id.
pub fn find(id: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.id == id)
}

/// All scenarios matching `tag` (tags or runtime-class label), in
/// registry order.
pub fn with_tag(tag: &str) -> Vec<&'static Scenario> {
    SCENARIOS.iter().filter(|s| s.has_tag(tag)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let mut ids: Vec<&str> = all().iter().map(|s| s.id).collect();
        let n = ids.len();
        assert_eq!(
            n, 37,
            "26 paper scenarios + 3 cluster + 2 streaming cluster-xl + 2 overload \
             + 2 chaos + 2 health"
        );
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate scenario id");
        for id in ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "id '{id}' is not kebab-case"
            );
        }
    }

    #[test]
    fn every_scenario_is_findable_and_tagged() {
        for s in all() {
            assert!(std::ptr::eq(find(s.id).unwrap(), s));
            assert!(!s.tags.is_empty(), "{} has no tags", s.id);
            assert!(s.has_tag(s.class.label()), "class label matches as tag");
            assert!(!s.title.is_empty() && !s.paper_ref.is_empty());
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn tag_filters_partition_sensibly() {
        let figures = with_tag("figure").len();
        let tables = with_tag("table").len();
        let ablations = with_tag("ablation").len();
        let tools = with_tag("tool").len();
        let clusters = with_tag("cluster").len();
        let cluster_xl = with_tag("cluster-xl").len();
        let overload = with_tag("overload").len();
        let chaos = with_tag("chaos").len();
        let health = with_tag("health").len();
        let elastic = with_tag("elastic").len();
        assert_eq!(figures, 19);
        assert_eq!(tables, 1);
        assert_eq!(ablations, 2);
        assert_eq!(tools, 2);
        assert_eq!(clusters, 3, "cluster-xl must not match the cluster tag");
        assert_eq!(cluster_xl, 2);
        assert_eq!(overload, 2);
        assert_eq!(chaos, 2);
        assert_eq!(health, 2);
        assert_eq!(elastic, 1, "only the autoscaler scenario is elastic");
        // quick + full covers everything.
        assert_eq!(with_tag("quick").len() + with_tag("full").len(), 37);
    }

    #[test]
    fn quick_scenarios_run_into_a_buffer() {
        for s in with_tag("quick") {
            if s.id == "make-workload" {
                continue; // writes files; covered by the CLI tests
            }
            let mut buf = Vec::new();
            s.run_to(&mut buf, &[]).unwrap_or_else(|e| {
                panic!("quick scenario {} failed: {e}", s.id);
            });
            assert!(!buf.is_empty(), "{} wrote nothing", s.id);
        }
    }

    #[test]
    fn usage_scenarios_error_without_args() {
        let compare = find("compare").unwrap();
        let mut buf = Vec::new();
        match compare.run_to(&mut buf, &[]) {
            Err(ScenarioError::Usage(msg)) => assert!(msg.contains("usage")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }
}
