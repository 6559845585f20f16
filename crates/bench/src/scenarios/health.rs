//! Node-health feedback scenarios: outlier ejection, hedged requests and
//! retry backoff under seeded fault plans.
//!
//! `straggler-outliers` runs a 16-machine fleet at half rate under a
//! straggler-heavy plan (severe 8× windows) and stacks the feedback loop
//! up row by row: bare fleet, plan armed, plan + outlier ejection, plan +
//! ejection + hedged requests. The tail columns quantify what each layer
//! buys and the hedge tariff what it costs. `retry-backoff` crashes the
//! same fleet ~4 times a minute and compares instant crash replay against
//! exponential backoff with crash-site avoidance, with and without
//! ejection riding along.
//!
//! Both scenarios are deterministic and byte-identical at any
//! `BENCH_THREADS`: EWMAs, ejection decisions, hedges and backoff delays
//! all live in the serial front-end fold, and machine fans merge in
//! machine order.

use faas_cluster::dispatch::LeastOutstanding;
use faas_cluster::{
    workload_from_trace, BackoffConfig, ChaosConfig, Cluster, ClusterConfig, ColdStartConfig,
    EjectionConfig, FaultPlan, FaultPlanConfig, HealthConfig, HedgeConfig,
};
use faas_simcore::SimDuration;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{paper_machine, par, w2_cluster_trace};

/// The straggler plan both `straggler-outliers` rows share: two severe
/// windows per minute, 30 s each at 8× slowdown, over W2's two minutes.
fn outlier_plan(machines: usize) -> FaultPlan {
    let cfg =
        FaultPlanConfig::new(0x0057_A660, 2).with_stragglers(2.0, SimDuration::from_secs(30), 8.0);
    FaultPlan::generate_sharded(&cfg, machines, par::bench_threads())
}

/// The crash plan for `retry-backoff`: ~4 crashes per minute with 12 s
/// downtime, no stragglers — pure replay pressure.
fn crash_plan(machines: usize) -> FaultPlan {
    let cfg = FaultPlanConfig::new(0x00BA_C0FF, 2).with_crashes(4.0, SimDuration::from_secs(12));
    FaultPlan::generate_sharded(&cfg, machines, par::bench_threads())
}

/// The ejection tuning both scenarios share: 2× the fleet median, 5 s
/// probation, default quorum/fraction bounds.
fn ejection() -> EjectionConfig {
    EjectionConfig::default()
        .with_threshold(2.0)
        .with_probation(SimDuration::from_secs(5))
        .with_min_samples(8)
}

/// straggler-outliers: a 16-machine fleet at half rate under the severe
/// straggler plan, with the feedback loop stacked up row by row.
pub(crate) fn straggler_outliers(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let machines = 16;
    // Half-rate load: hedging duplicates work, so the comparison only
    // makes sense on a fleet with the headroom to absorb the copies.
    let trace = w2_cluster_trace(machines / 2);
    let tasks = workload_from_trace(&trace, par::bench_threads());
    let price = PriceModel::duration_only();
    let chaos = || ChaosConfig::new(outlier_plan(machines)).with_price(price);
    // Classic p95 rule with the default 5% hedge budget. The budget is
    // load-bearing: during an 8x window most estimates pass the tail,
    // and uncapped speculation would storm the very queues it races
    // (and mask the slow samples ejection needs).
    let hedge = HedgeConfig::default()
        .with_min_samples(256)
        .with_price(price);
    let fleet = || {
        ClusterConfig::new(machines, paper_machine())
            .with_cold_start(ColdStartConfig::firecracker())
    };
    let rows = [
        ("no-chaos", fleet()),
        ("chaos", fleet().with_chaos(chaos())),
        (
            "chaos+ejection",
            fleet()
                .with_chaos(chaos())
                .with_health(HealthConfig::default().with_ejection(ejection())),
        ),
        (
            "chaos+ejection+hedging",
            fleet().with_chaos(chaos()).with_health(
                HealthConfig::default()
                    .with_ejection(ejection())
                    .with_hedge(hedge),
            ),
        ),
    ];
    writeln!(
        ctx.out,
        "# straggler-outliers | {machines} machines x 50 cores, W2 x{} RPS \
         ({} invocations), firecracker cold starts, hybrid(25,25) nodes, \
         least-outstanding dispatch, seeded 2-minute straggler plan (8x windows)",
        machines / 2,
        tasks.len()
    )?;
    writeln!(
        ctx.out,
        "row\tcompleted\tstraggled\tejections\treadmissions\tprobes\thedges\t\
         hedges_won\tcancelled\tp99_response_s\tp99_turnaround_s\tcost_usd\thedge_usd"
    )?;
    for (name, cfg) in rows {
        let report = Cluster::new(cfg, LeastOutstanding, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run(&tasks, par::bench_threads())
        .expect("straggled cluster still completes");
        let summary = report.summary();
        let cost = price.cluster_workload_cost(&report.records);
        let h = report.health;
        writeln!(
            ctx.out,
            "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{cost:.4}\t{:.4}",
            summary.merged.execution.count,
            report.chaos.straggled_tasks,
            h.ejections,
            h.readmissions,
            h.probes,
            h.hedges,
            h.hedges_won,
            report.overload.kernel_cancelled,
            summary.merged.response.p99.as_secs_f64(),
            summary.merged.turnaround.p99.as_secs_f64(),
            h.hedge_cost_usd,
        )?;
    }
    Ok(())
}

/// retry-backoff: the crash plan with unlimited retries — instant replay
/// vs exponential backoff with crash-site avoidance, with and without
/// ejection.
pub(crate) fn retry_backoff(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let machines = 16;
    let trace = w2_cluster_trace(machines);
    let tasks = workload_from_trace(&trace, par::bench_threads());
    let price = PriceModel::duration_only();
    let backoff = BackoffConfig::new(0x0BAC_0FF5)
        .with_delays(SimDuration::from_millis(250), SimDuration::from_secs(30))
        .with_jitter(0.25);
    let chaos = || {
        ChaosConfig::new(crash_plan(machines))
            .with_slo(SimDuration::from_secs(2))
            .with_price(price)
    };
    let fleet = || {
        ClusterConfig::new(machines, paper_machine())
            .with_cold_start(ColdStartConfig::firecracker())
    };
    let rows = [
        ("instant-retry", fleet().with_chaos(chaos())),
        ("backoff", fleet().with_chaos(chaos().with_backoff(backoff))),
        (
            "backoff+ejection",
            fleet()
                .with_chaos(chaos().with_backoff(backoff))
                .with_health(HealthConfig::default().with_ejection(ejection())),
        ),
    ];
    writeln!(
        ctx.out,
        "# retry-backoff | {machines} machines x 50 cores, W2 x{machines} RPS \
         ({} invocations), firecracker cold starts, hybrid(25,25) nodes, \
         least-outstanding dispatch, seeded 2-minute crash plan, unlimited retries",
        tasks.len()
    )?;
    writeln!(
        ctx.out,
        "row\tcompleted\tcrashes\tretries\tbackoff_retries\tmean_backoff_ms\t\
         ejections\trecovered\tmean_recovery_s\tp99_response_s\tcost_usd\tchurn_usd"
    )?;
    for (name, cfg) in rows {
        let report = Cluster::new(cfg, LeastOutstanding, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run(&tasks, par::bench_threads())
        .expect("crashing cluster still completes");
        let summary = report.summary();
        let cost = price.cluster_workload_cost(&report.records);
        let c = report.chaos;
        let h = report.health;
        let mean_backoff_ms = if h.backoff_retries == 0 {
            0.0
        } else {
            h.backoff_delay_total.as_secs_f64() * 1e3 / h.backoff_retries as f64
        };
        writeln!(
            ctx.out,
            "{name}\t{}\t{}\t{}\t{}\t{mean_backoff_ms:.1}\t{}\t{}\t{:.2}\t{:.2}\t{cost:.4}\t{:.4}",
            summary.merged.execution.count,
            c.crashes,
            c.retries,
            h.backoff_retries,
            h.ejections,
            c.recoveries,
            c.mean_recovery().as_secs_f64(),
            summary.merged.response.p99.as_secs_f64(),
            c.churn_cost_usd,
        )?;
    }
    Ok(())
}
