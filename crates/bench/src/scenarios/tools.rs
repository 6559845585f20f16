//! Downstream-user tools: workload-file generation and the
//! compare-everything CLI.

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use azure_trace::{AzureTrace, TraceStats};
use faas_kernel::MachineConfig;
use faas_metrics::{Metric, TaskRecord};
use faas_policies::{Cfs, Edf, Fifo, Mlfq, MlfqParams, Sfs};
use faas_simcore::SimDuration;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

use crate::scenario::{ScenarioCtx, ScenarioError, ScenarioResult};
use crate::{par, run_policy, write_cdf_chart, write_summary_row};

/// Generates the paper's workload files (Fig. 9 step ①): CSV rows of
/// `(inter-arrival time, fibonacci N, duration, memory)` for W2, W10 and
/// the Firecracker prefix, ready for the simulator
/// (`AzureTrace::read_csv`) or the live replayer
/// (`faas_host::TraceRunner::from_workload_csv`).
///
/// Args: `[output_dir]` (default `./workloads`). Honors `SCALE_DIV` like
/// every other scenario; because it writes files, batch runs skip it.
pub(crate) fn make_workload(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let dir = ctx
        .args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| "workloads".into());
    std::fs::create_dir_all(&dir)?;
    let sets: Vec<(&str, AzureTrace)> = vec![
        ("w2.csv", crate::w2_trace()),
        ("w10.csv", crate::w10_trace()),
        ("firecracker.csv", crate::wfc_trace()),
    ];
    for (name, trace) in sets {
        let path = dir.join(name);
        trace.write_csv(BufWriter::new(File::create(&path)?))?;
        writeln!(
            ctx.out,
            "{}: {}",
            path.display(),
            TraceStats::compute(&trace, 50)
        )?;
    }
    Ok(())
}

/// Compares all schedulers on a workload file — the downstream-user CLI.
///
/// Args: `<workload.csv> [cores=50]`. Reads a CSV in the `azure-trace`
/// workload format, replays it under every scheduler in the repository on
/// the given core count (one independent simulation per scheduler, fanned
/// over `BENCH_THREADS`), and writes a Table-I style comparison plus an
/// execution-time CDF chart.
pub(crate) fn compare(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let usage = || ScenarioError::Usage("usage: compare <workload.csv> [cores=50]".to_string());
    let Some(path) = ctx.args.first().cloned() else {
        return Err(usage());
    };
    let cores: usize = ctx.args.get(1).and_then(|a| a.parse().ok()).unwrap_or(50);
    let file =
        File::open(&path).map_err(|e| ScenarioError::Usage(format!("cannot open {path}: {e}")))?;
    let trace = AzureTrace::read_csv(std::io::BufReader::new(file))
        .map_err(|e| ScenarioError::Usage(format!("cannot parse {path}: {e}")))?;
    if trace.is_empty() || cores == 0 {
        return Err(ScenarioError::Usage(
            "empty workload or zero cores".to_string(),
        ));
    }
    writeln!(ctx.out, "# {}", TraceStats::compute(&trace, cores))?;

    let machine = move || MachineConfig::new(cores);
    let model = PriceModel::duration_only();
    let half = (cores / 2).max(1);
    let hybrid_cfg = HybridConfig::split((cores - half).max(1), half);
    type Job<'a> = Box<dyn FnOnce() -> Vec<TaskRecord> + Send + 'a>;
    // One spec build; all nine scheduler runs borrow it.
    let specs = trace.to_task_specs();
    let s = &specs;
    let mut jobs: Vec<(&str, Job)> = Vec::new();
    jobs.push((
        "hybrid",
        Box::new(move || run_policy(machine(), s, HybridScheduler::new(hybrid_cfg)).1),
    ));
    jobs.push((
        "fifo",
        Box::new(move || run_policy(machine(), s, Fifo::new()).1),
    ));
    jobs.push((
        "cfs",
        Box::new(move || run_policy(machine(), s, Cfs::with_cores(cores)).1),
    ));
    jobs.push((
        "fifo+100ms",
        Box::new(move || {
            run_policy(
                machine(),
                s,
                Fifo::with_limit(SimDuration::from_millis(100)),
            )
            .1
        }),
    ));
    jobs.push((
        "round-robin",
        Box::new(move || {
            run_policy(
                machine(),
                s,
                Fifo::round_robin(SimDuration::from_millis(10)),
            )
            .1
        }),
    ));
    jobs.push((
        "edf",
        Box::new(move || run_policy(machine(), s, Edf::new()).1),
    ));
    jobs.push((
        "shinjuku",
        Box::new(move || run_policy(machine(), s, Fifo::shinjuku(SimDuration::from_millis(1))).1),
    ));
    jobs.push((
        "sfs",
        Box::new(move || run_policy(machine(), s, Sfs::new(SimDuration::from_millis(50))).1),
    ));
    jobs.push((
        "mlfq",
        Box::new(move || run_policy(machine(), s, Mlfq::new(MlfqParams::default())).1),
    ));
    let (names, runs): (Vec<&str>, Vec<Job>) = jobs.into_iter().unzip();
    let results: Vec<(&str, Vec<TaskRecord>)> = names.into_iter().zip(par::run_all(runs)).collect();

    for (name, records) in &results {
        write_summary_row(ctx.out, name, records, model.workload_cost(records))?;
    }
    let curves: Vec<(&str, &[TaskRecord])> = results
        .iter()
        .take(3)
        .map(|(n, r)| (*n, r.as_slice()))
        .collect();
    write_cdf_chart(ctx.out, "compare", Metric::Execution, &curves)?;
    Ok(())
}
