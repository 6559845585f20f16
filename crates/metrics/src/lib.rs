//! # faas-metrics
//!
//! The measurement vocabulary of the paper (§II-B, Fig. 3) and the CDF /
//! percentile / time-series machinery every figure harness uses:
//!
//! * [`TaskRecord`] — per-invocation record with
//!   [`execution_time`](TaskRecord::execution_time),
//!   [`response_time`](TaskRecord::response_time) and
//!   [`turnaround_time`](TaskRecord::turnaround_time) exactly as defined in
//!   the paper;
//! * [`MetricSummary`] / [`RunSummary`] — mean/p50/p90/p99/max/total
//!   (Table I);
//! * [`DurationCdf`] — the CDF curves of Figs. 4/5/6/11/12/21;
//! * [`group_utilization_series`] / [`step_series`] — the utilization and
//!   adaptive-limit timelines of Figs. 14/16/17/19;
//! * [`jain_fairness`] / [`slowdowns`] — fairness statistics;
//! * [`merge_records`] / [`FleetSummary`] — cross-machine aggregation
//!   for the cluster layer (merged CDFs/percentiles in machine order,
//!   plus the front-end layers' ledgers); [`ClusterSummary`] is the
//!   fleet summary over exact [`RunSummary`]s;
//! * [`QuantileSketch`] / [`StreamRunStats`] / [`StreamClusterSummary`] —
//!   the streaming-cluster counterparts: mergeable ε-approximate
//!   quantiles and online accumulators holding O(sketch) memory instead
//!   of O(invocations), summarized by the same [`FleetSummary`] (see
//!   `DESIGN.md` "Streaming cluster runs");
//! * [`OverloadStats`] — the shed/timeout/breaker-trip ledger of the
//!   dispatch-tier overload middleware (see `DESIGN.md` "Overload
//!   middleware");
//! * [`ChaosStats`] — the crash/retry/autoscale/SLO-recovery ledger of
//!   the fault-injection layer (see `DESIGN.md` "Chaos & elasticity");
//! * [`HealthStats`] / [`MachineHealth`] — the ejection/probe/hedge/
//!   backoff ledger of the node-health feedback layer (see `DESIGN.md`
//!   "Node-health feedback");
//! * CSV export for external plotting.
//!
//! ```
//! use faas_metrics::{DurationCdf, Metric, RunSummary, TaskRecord};
//! use faas_simcore::{SimDuration, SimTime};
//!
//! let records: Vec<TaskRecord> = (1..=100)
//!     .map(|i| TaskRecord {
//!         arrival: SimTime::ZERO,
//!         first_run: SimTime::from_millis(i),
//!         completion: SimTime::from_millis(i + 200),
//!         cpu_time: SimDuration::from_millis(200),
//!         preemptions: 0,
//!         mem_mib: 128,
//!     })
//!     .collect();
//! let summary = RunSummary::compute(&records);
//! assert_eq!(summary.response.p99, SimDuration::from_millis(99));
//! let cdf = DurationCdf::of_metric(&records, Metric::Execution);
//! assert_eq!(cdf.percentile(0.5), SimDuration::from_millis(200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod chaos;
mod export;
mod health;
mod merge;
mod overload;
mod record;
mod sketch;
mod stats;
mod stream;
mod summary;
mod timeline;

pub use cdf::DurationCdf;
pub use chaos::ChaosStats;
pub use export::{write_records_csv, write_series_csv};
pub use health::{HealthStats, MachineHealth};
pub use merge::{merge_records, ClusterSummary, FleetSummary};
pub use overload::OverloadStats;
pub use record::{records_from_tasks, TaskRecord, UnfinishedTaskError};
pub use sketch::QuantileSketch;
pub use stats::{jain_fairness, slowdowns};
pub use stream::{StreamClusterSummary, StreamRunStats, StreamStats, DEFAULT_STREAM_EPSILON};
pub use summary::{Metric, MetricSummary, RunSummary};
pub use timeline::{group_utilization_series, mean_utilization, step_series};
