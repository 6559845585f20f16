//! Table I and the supporting operating-point run.

use faas_metrics::TaskRecord;
use faas_policies::{Cfs, Fifo};
use faas_simcore::SimDuration;
use hybrid_scheduler::{HybridConfig, HybridScheduler, TimeLimitPolicy};
use lambda_pricing::PriceModel;

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{paper_machine, par, run_policy, w2_trace, write_summary_row};

/// Table I: p99 response/execution/turnaround and overall cost for FIFO,
/// CFS and the hybrid scheduler on W2.
///
/// The three policy runs are independent simulations, fanned over
/// `BENCH_THREADS`; rows are written in table order regardless of which
/// run finishes first. The trace is synthesized **once** and every run
/// borrows it (the shared-spec path), and each job returns through the
/// slim-report path, so peak memory is one trace plus per-task records.
pub(crate) fn table1(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let model = PriceModel::duration_only();
    writeln!(
        ctx.out,
        "# Table I | W2, 50 cores (costs use each function's own memory size)"
    )?;
    let specs = trace.to_task_specs();
    let jobs: Vec<Box<dyn FnOnce() -> Vec<TaskRecord> + Send + '_>> = vec![
        Box::new(|| run_policy(paper_machine(), &specs, Fifo::new()).1),
        Box::new(|| run_policy(paper_machine(), &specs, Cfs::with_cores(50)).1),
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .1
        }),
    ];
    let results = par::run_all(jobs);
    for (name, records) in ["fifo", "cfs", "ours(hybrid)"].iter().zip(&results) {
        write_summary_row(ctx.out, name, records, model.workload_cost(records))?;
    }
    Ok(())
}

/// EXPERIMENTS.md "deviation 1": with a 500 ms FIFO limit the hybrid's
/// p99 response beats plain FIFO, showing the paper's Fig. 6 ordering is
/// an operating-point property of the workload's tail weight, not a
/// missing mechanism.
pub(crate) fn deviation1(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let cfg = HybridConfig::paper_25_25()
        .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(500)));
    let (_, r) = run_policy(
        paper_machine(),
        trace.to_task_specs(),
        HybridScheduler::new(cfg),
    );
    write_summary_row(
        ctx.out,
        "hybrid-500ms",
        &r,
        PriceModel::duration_only().workload_cost(&r),
    )?;
    Ok(())
}
