//! Overload scenarios: the dispatch-tier middleware stack under
//! sustained over-admission.
//!
//! The cluster scenarios size fleets to their traffic; these scenarios
//! deliberately do not. Both drive more W2 traffic than the fleet can
//! serve and compare a bare front end (admit everything, queues grow
//! without bound) against middleware stacks that shed work at the
//! router: per-function admission control (concurrency caps + token
//! buckets), request timeouts with abandonment (router-estimated and
//! kernel-enforced), and circuit breakers over the rolling timeout rate.
//! Each row reports what was served, what was refused and why, the
//! kernel's peak in-flight backlog, the tail of the work that ran, and
//! both sides of the cost ledger — dollars billed for completed work and
//! revenue forfeited with shed work.
//!
//! Output is deterministic and byte-identical at any `BENCH_THREADS`:
//! middleware decisions happen in the serial front-end pass, and the
//! machine fan merges in machine order.

use faas_cluster::dispatch::LeastOutstanding;
use faas_cluster::{
    workload_from_trace, BreakerConfig, Cluster, ClusterConfig, ClusterTaskStream, ColdStartConfig,
    OverloadConfig, StreamOptions,
};
use faas_metrics::RunSummary;
use faas_simcore::SimDuration;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{paper_machine, par, w2_cluster_trace, w2_cluster_trace_cfg};

/// The middleware configurations both scenarios cross, in presentation
/// order. `bare` is the default stack, which admits everything; every
/// other stack prices its shed work with the duration-only model so the
/// forfeited-revenue column is populated.
fn stacks() -> Vec<(&'static str, OverloadConfig)> {
    let price = PriceModel::duration_only();
    let deadline = SimDuration::from_secs(5);
    let breaker = BreakerConfig {
        window: 64,
        trip_pct: 50,
        cooldown: SimDuration::from_secs(5),
    };
    vec![
        ("bare", OverloadConfig::default()),
        (
            "admission",
            OverloadConfig::default()
                .with_concurrency_limit(32)
                .with_rate_limit(20, 40)
                .with_price(price),
        ),
        (
            "timeout-5s",
            OverloadConfig::default()
                .with_deadline(deadline)
                .with_price(price),
        ),
        (
            "timeout-5s-cancel",
            OverloadConfig::default()
                .with_deadline(deadline)
                .with_kernel_cancel()
                .with_price(price),
        ),
        (
            "timeout+breaker",
            OverloadConfig::default()
                .with_deadline(deadline)
                .with_breaker(breaker)
                .with_price(price),
        ),
        (
            "full-stack",
            OverloadConfig::default()
                .with_concurrency_limit(32)
                .with_rate_limit(20, 40)
                .with_deadline(deadline)
                .with_kernel_cancel()
                .with_breaker(breaker)
                .with_price(price),
        ),
    ]
}

const HEADER: &str = "stack\tcompleted\tshed_conc\tshed_rate\tshed_timeout\tshed_breaker\t\
                      trips\tcancelled\tmax_live_tasks\tp99_response_s\t\
                      machine_p99_resp_spread_s\tcost_usd\tlost_revenue_usd";

fn fleet_config(machines: usize, stack: OverloadConfig) -> ClusterConfig {
    ClusterConfig::new(machines, paper_machine())
        .with_cold_start(ColdStartConfig::firecracker())
        .with_overload(stack)
}

/// overload: a 4-machine fleet at 2× its capacity (W2 × 8 RPS),
/// materializing path. One row per middleware stack.
pub(crate) fn overload(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let machines = 4;
    let trace = w2_cluster_trace(machines * 2);
    let tasks = workload_from_trace(&trace, par::bench_threads());
    writeln!(
        ctx.out,
        "# overload | {machines} machines x 50 cores at 2x capacity, W2 x{} RPS \
         ({} invocations), firecracker cold starts, hybrid(25,25) nodes, least-outstanding dispatch",
        machines * 2,
        tasks.len()
    )?;
    writeln!(ctx.out, "{HEADER}")?;
    for (name, stack) in stacks() {
        let report = Cluster::new(fleet_config(machines, stack), LeastOutstanding, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run(&tasks, par::bench_threads())
        .expect("overloaded cluster still completes");
        let merged = report.merged_records();
        let s = RunSummary::compute(&merged);
        let cost = PriceModel::duration_only().cluster_workload_cost(&report.records);
        let (lo, hi) = report.summary().response_p99_spread();
        let o = report.overload;
        writeln!(
            ctx.out,
            "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}-{:.2}\t{cost:.4}\t{:.4}",
            merged.len(),
            o.shed_concurrency,
            o.shed_rate,
            o.shed_timeout,
            o.shed_breaker,
            o.breaker_trips,
            o.kernel_cancelled,
            report.max_in_flight(),
            s.response.p99.as_secs_f64(),
            lo.as_secs_f64(),
            hi.as_secs_f64(),
            o.lost_revenue_usd,
        )?;
    }
    Ok(())
}

/// brownout: a 16-machine fleet at 4× its capacity (W2 × 64 RPS),
/// streaming path — the cluster-xl shape where an unbounded backlog is a
/// memory-and-latency cliff, not just a tail number. The bare row's
/// `max_live_tasks` grows with the trace; every shedding stack's stays
/// near its admission bound.
pub(crate) fn brownout(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let machines = 16;
    let cfg = w2_cluster_trace_cfg(machines * 4);
    let total = ClusterTaskStream::new(&cfg, 1).total_invocations();
    writeln!(
        ctx.out,
        "# brownout | {machines} machines x 50 cores at 4x capacity, W2 x{} RPS \
         ({total} invocations), firecracker cold starts, hybrid(25,25) nodes, \
         least-outstanding dispatch, streaming run",
        machines * 4
    )?;
    writeln!(ctx.out, "{HEADER}")?;
    let opts = StreamOptions {
        price: Some(PriceModel::duration_only()),
        ..StreamOptions::default()
    };
    for (name, stack) in stacks() {
        let report = Cluster::new(fleet_config(machines, stack), LeastOutstanding, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run_streaming(ClusterTaskStream::new(&cfg, 1), &opts, par::bench_threads())
        .expect("browned-out cluster still completes");
        let summary = report.summary();
        let merged = summary.merged.to_summary();
        let (lo, hi) = summary.response_p99_spread();
        let o = report.overload;
        writeln!(
            ctx.out,
            "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}-{:.2}\t{:.4}\t{:.4}",
            merged.response.count,
            o.shed_concurrency,
            o.shed_rate,
            o.shed_timeout,
            o.shed_breaker,
            o.breaker_trips,
            o.kernel_cancelled,
            report.max_in_flight(),
            merged.response.p99.as_secs_f64(),
            lo.as_secs_f64(),
            hi.as_secs_f64(),
            report.total_cost_usd(),
            o.lost_revenue_usd,
        )?;
    }
    Ok(())
}
