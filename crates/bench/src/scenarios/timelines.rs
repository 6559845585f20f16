//! Timeline scenarios (Figs. 14/16/17/19): a single simulation feeds each
//! figure, so there is nothing for the `BENCH_THREADS` fan-out to
//! parallelize; the run is direct and its output is trivially identical
//! at any thread count.

use faas_kernel::{CoreId, Simulation};
use faas_metrics::{group_utilization_series, mean_utilization, step_series};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{Group, HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy};

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{paper_machine, w10_trace, w2_trace};

/// Fig. 14: average CPU utilization of the FIFO group vs the CFS group
/// over time (hybrid 25/25, W2).
pub(crate) fn fig14(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let mut sim = Simulation::new(
        paper_machine(),
        trace.to_task_specs(),
        HybridScheduler::new(HybridConfig::paper_25_25()),
    );
    while sim.step().expect("simulation completes") {}
    let fifo_cores: Vec<CoreId> = (0..25).map(CoreId::from_index).collect();
    let cfs_cores: Vec<CoreId> = (25..50).map(CoreId::from_index).collect();
    let fifo = group_utilization_series(sim.machine().utilization(), &fifo_cores);
    let cfs = group_utilization_series(sim.machine().utilization(), &cfs_cores);
    writeln!(ctx.out, "# Fig. 14 | group utilization over time")?;
    writeln!(ctx.out, "t_s\tfifo_util\tcfs_util")?;
    for ((t, f), (_, c)) in fifo.iter().zip(&cfs) {
        writeln!(ctx.out, "{:.0}\t{f:.3}\t{c:.3}", t.as_secs_f64())?;
    }
    writeln!(
        ctx.out,
        "# mean over whole run: fifo={:.3} cfs={:.3}",
        mean_utilization(&fifo),
        mean_utilization(&cfs)
    )?;
    let during = |s: &[(SimTime, f64)]| {
        let w: Vec<_> = s
            .iter()
            .filter(|(t, _)| *t <= SimTime::from_secs(120))
            .copied()
            .collect();
        mean_utilization(&w)
    };
    writeln!(
        ctx.out,
        "# mean during arrivals: fifo={:.3} cfs={:.3}",
        during(&fifo),
        during(&cfs)
    )?;
    Ok(())
}

/// Shared body of Figs. 16/17: the adaptive-limit timeline on the
/// 10-minute workload at one percentile.
fn adaptive_timeline(
    ctx: &mut ScenarioCtx<'_>,
    percentile: f64,
    figure: &str,
    p95_footer: bool,
) -> ScenarioResult {
    let trace = w10_trace();
    let cfg = HybridConfig::paper_25_25().with_time_limit(TimeLimitPolicy::Adaptive {
        percentile,
        initial: SimDuration::from_millis(1_633),
    });
    let mut sim = Simulation::new(
        paper_machine(),
        trace.to_task_specs(),
        HybridScheduler::new(cfg),
    );
    while sim.step().expect("simulation completes") {}
    let end = sim.machine().now();
    let arrivals_end =
        trace.invocations().last().expect("non-empty trace").arrival + SimDuration::from_secs(30);
    let fifo_cores: Vec<CoreId> = (0..25).map(CoreId::from_index).collect();
    let cfs_cores: Vec<CoreId> = (25..50).map(CoreId::from_index).collect();
    let fifo = group_utilization_series(sim.machine().utilization(), &fifo_cores);
    let cfs = group_utilization_series(sim.machine().utilization(), &cfs_cores);
    let limit = step_series(sim.policy().limit_history(), end, SimDuration::from_secs(1));
    writeln!(
        ctx.out,
        "# {figure} | adaptive limit = p{:.0} of last 100 durations",
        percentile * 100.0
    )?;
    writeln!(ctx.out, "t_s\tfifo_util\tcfs_util\tlimit_ms")?;
    let horizon = (end.min(arrivals_end).as_secs_f64().ceil() as usize).min(fifo.len());
    for i in 0..horizon {
        let t = SimTime::from_secs(i as u64);
        let f = fifo.get(i).map(|(_, u)| *u).unwrap_or(0.0);
        let c = cfs.get(i).map(|(_, u)| *u).unwrap_or(0.0);
        let l = limit.get(i).map(|(_, v)| *v).unwrap_or(SimDuration::ZERO);
        writeln!(
            ctx.out,
            "{:.0}\t{f:.3}\t{c:.3}\t{:.0}",
            t.as_secs_f64(),
            l.as_millis_f64()
        )?;
    }
    if p95_footer {
        let in_window: Vec<_> = cfs
            .iter()
            .filter(|(t, _)| *t <= arrivals_end)
            .copied()
            .collect();
        writeln!(
            ctx.out,
            "# tasks migrated to CFS group = {} | mean cfs-group utilization during arrivals = {:.3} (low = provider loss)",
            sim.policy().tasks_migrated(),
            mean_utilization(&in_window)
        )?;
    } else {
        // The limit as the arrival window closes (after it, only the long
        // backlog completes, which skews the window toward the tail).
        let at_horizon = sim
            .policy()
            .limit_history()
            .iter()
            .take_while(|(t, _)| *t <= arrivals_end)
            .last()
            .map(|(_, l)| *l)
            .unwrap_or(SimDuration::ZERO);
        writeln!(
            ctx.out,
            "# limit at end of arrivals = {:.0} ms | limit changes = {}",
            at_horizon.as_millis_f64(),
            sim.policy().limit_history().len()
        )?;
    }
    Ok(())
}

/// Fig. 16: utilization + the adaptive limit over time, limit = p75.
pub(crate) fn fig16(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    adaptive_timeline(ctx, 0.75, "Fig. 16", false)
}

/// Fig. 17: same timeline with the limit at p95.
pub(crate) fn fig17(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    adaptive_timeline(ctx, 0.95, "Fig. 17", true)
}

/// Fig. 19: utilization + the number of FIFO cores over time with
/// rightsizing on the 10-minute workload.
pub(crate) fn fig19(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w10_trace();
    let cfg = HybridConfig::paper_25_25().with_rightsizing(RightsizingConfig::default());
    let mut sim = Simulation::new(
        paper_machine(),
        trace.to_task_specs(),
        HybridScheduler::new(cfg),
    );
    while sim.step().expect("simulation completes") {}
    let end = sim.machine().now();
    let arrivals_end =
        trace.invocations().last().expect("non-empty trace").arrival + SimDuration::from_secs(30);
    let fifo_counts = step_series(
        sim.policy().fifo_size_history(),
        end,
        SimDuration::from_secs(1),
    );
    // Group membership changes over time, so compute per-bucket utilization
    // against the *final* membership for a stable series, plus per-group
    // means from the ledger.
    let util = sim.machine().utilization();
    writeln!(ctx.out, "# Fig. 19 | rightsizing timeline")?;
    writeln!(ctx.out, "t_s\tall_util\tfifo_cores")?;
    let horizon = (end.min(arrivals_end).as_secs_f64().ceil() as usize).min(util.bucket_count());
    let all: Vec<usize> = (0..50).collect();
    let mut series = Vec::new();
    for i in 0..horizon {
        let u = util.group_bucket_utilization(&all, i);
        let n = fifo_counts.get(i).map(|(_, v)| *v).unwrap_or(25);
        writeln!(ctx.out, "{i}\t{u:.3}\t{n}")?;
        series.push((SimTime::from_secs(i as u64), u));
    }
    writeln!(
        ctx.out,
        "# migrations = {} | mean machine utilization = {:.3}",
        sim.policy().migrations().len(),
        mean_utilization(&series)
    )?;
    for m in sim.policy().migrations().iter().take(10) {
        let dir = match m.direction {
            hybrid_scheduler::MigrationDirection::CfsToFifo => "cfs->fifo",
            hybrid_scheduler::MigrationDirection::FifoToCfs => "fifo->cfs",
        };
        writeln!(
            ctx.out,
            "# migration at {:.1}s: core {} {dir}",
            m.at.as_secs_f64(),
            m.core.index()
        )?;
    }
    let final_fifo = sim
        .policy()
        .fifo_cores()
        .iter()
        .filter(|c| sim.policy().group_of(**c) == Group::Fifo)
        .count();
    writeln!(ctx.out, "# final fifo cores = {final_fifo}")?;
    Ok(())
}
