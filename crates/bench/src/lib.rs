//! # faas-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation. Each experiment is a self-describing
//! [`scenario::Scenario`] in a central registry; the `faas-eval` binary
//! lists, filters and runs them (fanning independent scenarios and cases
//! across [`par`]). `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured for all of them.
//!
//! This library holds the shared experiment plumbing: the standard
//! 50-core machine (§V-C), policy runners, and figure-style writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guard;
pub mod jsoncheck;
/// The parallel job fan (moved to [`faas_simcore::par`] so the cluster
/// layer can fan machines without depending on this crate; re-exported
/// here because every scenario and sweep reaches it as `faas_bench::par`).
pub use faas_simcore::par;
mod plot;
pub mod scenario;
mod scenarios;
pub mod timing;

pub use plot::ascii_chart;

use std::io::{self, Write};

use azure_trace::{AzureTrace, TraceConfig};
use faas_kernel::{InterferenceConfig, MachineConfig, Scheduler, Simulation, SlimReport, TaskSpec};
use faas_metrics::{records_from_tasks, DurationCdf, Metric, RunSummary, TaskRecord};

/// The paper's enclave size: 50 cores of the Xeon testbed (§V-C).
pub const PAPER_CORES: usize = 50;

/// The standard machine of every process-mode experiment: 50 cores,
/// default context-switch costs, host-OS interference enabled (the native
/// CFS class ghOSt coexists with — §VI / Table I discussion).
pub fn paper_machine() -> MachineConfig {
    MachineConfig::new(PAPER_CORES).with_interference(InterferenceConfig::default())
}

/// A machine without interference, for ablations.
pub fn quiet_machine() -> MachineConfig {
    MachineConfig::new(PAPER_CORES)
}

/// Runs `policy` over `specs` on `machine`, returning the report and the
/// per-task records. The machine (event arena, arrival calendar,
/// utilization ledger) is dropped at the end of the run, so a big fan
/// holds one trace plus per-task records, not one machine per in-flight
/// job.
///
/// `specs` is an owned `Vec<TaskSpec>` (moved) or a borrowed
/// `&[TaskSpec]`, so multi-policy sweeps synthesize the trace once and
/// hand each run a borrow.
///
/// # Panics
///
/// Panics if the simulation deadlocks (a policy bug).
pub fn run_policy<'s, P: Scheduler>(
    machine: MachineConfig,
    specs: impl Into<std::borrow::Cow<'s, [TaskSpec]>>,
    policy: P,
) -> (SlimReport, Vec<TaskRecord>) {
    let report = Simulation::new(machine, specs, policy)
        .run_slim()
        .expect("simulation completes");
    let records = records_from_tasks(&report.tasks);
    (report, records)
}

/// The W2 workload (12,442 invocations / 2 min), optionally downscaled via
/// the `SCALE_DIV` environment variable (used by the criterion benches).
///
/// Synthesis is sharded across [`par::bench_threads`] workers; the trace
/// bytes are identical at any shard count (`azure_trace::shard`).
pub fn w2_trace() -> AzureTrace {
    AzureTrace::generate_sharded(&scaled(TraceConfig::w2()), par::bench_threads())
}

/// The W10 workload (10 min at W2's rate), sharded like [`w2_trace`].
pub fn w10_trace() -> AzureTrace {
    AzureTrace::generate_sharded(&scaled(TraceConfig::w10()), par::bench_threads())
}

/// The cluster workload: W2's two minutes at `rps_multiplier`× the
/// request rate (an M-machine fleet behind a front end sees M enclaves'
/// worth of traffic). Honors `SCALE_DIV` and shards synthesis like
/// [`w2_trace`].
pub fn w2_cluster_trace(rps_multiplier: usize) -> AzureTrace {
    AzureTrace::generate_sharded(
        &scaled(TraceConfig::w2().rps_scaled(rps_multiplier)),
        par::bench_threads(),
    )
}

/// The cluster workload as a trace **config** (not a materialized
/// trace), for scenarios that stream it through
/// [`faas_cluster::ClusterTaskStream`] instead of holding it in memory.
/// Same shape as [`w2_cluster_trace`]; honors `SCALE_DIV`.
pub fn w2_cluster_trace_cfg(rps_multiplier: usize) -> TraceConfig {
    scaled(TraceConfig::w2().rps_scaled(rps_multiplier))
}

/// The cluster-xl trace **config** (not a materialized trace): W2's
/// request rate sustained for a full hour (373,260 invocations), then
/// multiplied by `machines` like [`w2_cluster_trace`]. At 512 machines
/// that is ~191M invocations — far past what a materializing run can
/// hold, which is the point: the cluster-xl scenarios stream it through
/// [`faas_cluster::ClusterTaskStream`] minute by minute. Honors
/// `SCALE_DIV`.
pub fn cluster_xl_trace_cfg(machines: usize) -> TraceConfig {
    let hour = TraceConfig {
        minutes: 60,
        total_invocations: 373_260,
        ..TraceConfig::w2()
    };
    scaled(hour.rps_scaled(machines))
}

/// The elastic-fleet trace **config**: W2's request rate sustained for 8
/// minutes and swung by a ±60% diurnal sine over one full 8-minute
/// period, then multiplied by `rps_multiplier` like
/// [`w2_cluster_trace`]. The swing is what gives an autoscaler something
/// to chase — peak minutes run at 1.6× the mean rate, troughs at 0.4×.
/// Honors `SCALE_DIV`.
pub fn diurnal_cluster_trace_cfg(rps_multiplier: usize) -> TraceConfig {
    let cfg = TraceConfig {
        minutes: 8,
        total_invocations: 4 * TraceConfig::w2().total_invocations,
        arrivals: azure_trace::ArrivalConfig::default().with_diurnal(0.6, 8),
        ..TraceConfig::w2()
    };
    scaled(cfg.rps_scaled(rps_multiplier))
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux. The cluster-xl scenarios
/// report it on **stderr** — it is host state, never part of the
/// CI-diffed scenario stdout.
pub fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

/// The Firecracker workload: the first 2,952 invocations of the
/// 10-minute trace — the prefix the paper could launch before running
/// out of host memory (§VI-E).
pub fn wfc_trace() -> AzureTrace {
    let keep = match std::env::var("SCALE_DIV")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(div) if div > 1 => (2_952 / div).max(1),
        _ => 2_952,
    };
    // The prefix arrives in under 30 s of trace time, but a busy host
    // cannot start microVMs that fast: the jailer/API/boot path paces the
    // fleet (Firecracker launch overhead "hits the limit of our server
    // capacity much sooner"). Stretch arrivals accordingly.
    AzureTrace::generate_sharded(&scaled(TraceConfig::w10()), par::bench_threads())
        .truncated(keep)
        .stretched(3.0)
}

fn scaled(cfg: TraceConfig) -> TraceConfig {
    match std::env::var("SCALE_DIV")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(div) if div > 1 => cfg.downscaled(div),
        _ => cfg,
    }
}

/// Writes a CDF as `fraction<TAB>seconds` rows under a header — one curve
/// of a paper figure.
///
/// Scenarios write into an abstract sink rather than printing, so the
/// `faas-eval` runner can fan whole scenarios across threads and still
/// emit their output in registry order, byte-identical to a direct run.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_cdf(
    out: &mut dyn Write,
    figure: &str,
    curve: &str,
    metric: Metric,
    records: &[TaskRecord],
) -> io::Result<()> {
    let cdf = DurationCdf::of_metric(records, metric);
    writeln!(
        out,
        "# {figure} | curve={curve} | metric={}",
        metric.label()
    )?;
    for (d, p) in cdf.series(20) {
        writeln!(out, "{p:.3}\t{:.3}", d.as_secs_f64())?;
    }
    Ok(())
}

/// Writes an ASCII chart comparing the named curves of one metric
/// (duration seconds on x, cumulative fraction on y).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_cdf_chart(
    out: &mut dyn Write,
    title: &str,
    metric: Metric,
    curves: &[(&str, &[TaskRecord])],
) -> io::Result<()> {
    let series: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|(name, records)| {
            let cdf = DurationCdf::of_metric(records, metric);
            let pts: Vec<(f64, f64)> = cdf
                .series(40)
                .into_iter()
                .map(|(d, p)| (d.as_secs_f64(), p))
                .collect();
            (name.to_string(), pts)
        })
        .collect();
    let borrowed: Vec<(&str, &[(f64, f64)])> = series
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_slice()))
        .collect();
    writeln!(
        out,
        "# {title} | {} CDF (x = seconds, y = fraction)",
        metric.label()
    )?;
    write!(out, "{}", ascii_chart(&borrowed, 64, 12))
}

/// Writes a Table-I style row.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_summary_row(
    out: &mut dyn Write,
    name: &str,
    records: &[TaskRecord],
    cost_usd: f64,
) -> io::Result<()> {
    let s = RunSummary::compute(records);
    writeln!(
        out,
        "{name:<16} p99_response_s={:>9.2} p99_execution_s={:>9.2} p99_turnaround_s={:>9.2} cost_usd={cost_usd:>8.4}",
        s.response.p99.as_secs_f64(),
        s.execution.p99.as_secs_f64(),
        s.turnaround.p99.as_secs_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_policies::Fifo;

    #[test]
    fn paper_machine_shape() {
        let m = paper_machine();
        assert_eq!(m.cores, PAPER_CORES);
        assert!(m.interference.is_some());
        assert!(quiet_machine().interference.is_none());
    }

    #[test]
    fn run_policy_returns_complete_records() {
        let trace = AzureTrace::generate(&TraceConfig::tiny());
        let n = trace.len();
        let (report, records) = run_policy(quiet_machine(), trace.to_task_specs(), Fifo::new());
        assert_eq!(report.tasks.len(), n);
        assert_eq!(records.len(), n);
    }
}
