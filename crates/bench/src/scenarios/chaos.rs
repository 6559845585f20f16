//! Chaos and elasticity scenarios: deterministic fault injection and the
//! dispatch-tier autoscaler.
//!
//! `crash-storm` batters a fixed 16-machine fleet with a seeded fault
//! plan — machine crashes (in-flight work re-dispatched and re-billed),
//! straggler windows (degraded effective core speed) and interference
//! storms — and compares the bare fleet against the same fleet with the
//! fault plan armed, with and without the overload middleware riding
//! shotgun. `autoscale` runs a diurnal 8-minute trace through the
//! streaming path and compares pinned-small and pinned-large fleets
//! against the autoscaler chasing the swing between the two.
//!
//! Both scenarios are deterministic and byte-identical at any
//! `BENCH_THREADS`: every fault and scaling decision happens in the
//! serial front-end fold, and machine fans merge in machine order.

use faas_cluster::dispatch::LeastOutstanding;
use faas_cluster::{
    workload_from_trace, AutoscaleConfig, BreakerConfig, ChaosConfig, Cluster, ClusterConfig,
    ClusterTaskStream, ColdStartConfig, FaultPlan, FaultPlanConfig, OverloadConfig, StreamOptions,
};
use faas_simcore::SimDuration;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{diurnal_cluster_trace_cfg, paper_machine, par, w2_cluster_trace};

/// The seeded fault plan both `crash-storm` rows share: ~3 crashes per
/// minute with 10 s downtime, 1.5 straggler windows per minute (20 s at
/// 3× slowdown) and one 10 s interference storm per minute at 8× the
/// baseline gap rate, over W2's two minutes.
fn storm_plan(machines: usize) -> FaultPlan {
    let cfg = FaultPlanConfig::new(0x000C_4A05, 2)
        .with_crashes(3.0, SimDuration::from_secs(10))
        .with_stragglers(1.5, SimDuration::from_secs(20), 3.0)
        .with_storms(1.0, SimDuration::from_secs(10), 8.0);
    FaultPlan::generate_sharded(&cfg, machines, par::bench_threads())
}

/// crash-storm: a 16-machine fleet under the seeded fault plan,
/// materializing path. Rows: the bare fleet, the fleet under the plan,
/// and the fleet under the plan with timeout+breaker middleware shedding
/// around the craters.
pub(crate) fn crash_storm(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let machines = 16;
    let trace = w2_cluster_trace(machines);
    let tasks = workload_from_trace(&trace, par::bench_threads());
    let price = PriceModel::duration_only();
    let chaos = || {
        ChaosConfig::new(storm_plan(machines))
            .with_max_retries(4)
            .with_slo(SimDuration::from_secs(2))
            .with_price(price)
    };
    let middleware = OverloadConfig::default()
        .with_deadline(SimDuration::from_secs(5))
        .with_breaker(BreakerConfig {
            window: 64,
            trip_pct: 50,
            cooldown: SimDuration::from_secs(5),
        })
        .with_price(price);
    let fleet = || {
        ClusterConfig::new(machines, paper_machine())
            .with_cold_start(ColdStartConfig::firecracker())
    };
    let rows = [
        ("no-chaos", fleet()),
        ("chaos", fleet().with_chaos(chaos())),
        (
            "chaos+middleware",
            fleet().with_chaos(chaos()).with_overload(middleware),
        ),
    ];
    writeln!(
        ctx.out,
        "# crash-storm | {machines} machines x 50 cores, W2 x{machines} RPS \
         ({} invocations), firecracker cold starts, hybrid(25,25) nodes, \
         least-outstanding dispatch, seeded 2-minute fault plan",
        tasks.len()
    )?;
    writeln!(
        ctx.out,
        "row\tcompleted\tcrashes\tretries\tabandoned\tstraggled\tshed\ttrips\t\
         recovered\tunrecovered\tmean_recovery_s\tp99_response_s\tcost_usd\tchurn_usd"
    )?;
    for (name, cfg) in rows {
        let report = Cluster::new(cfg, LeastOutstanding, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run(&tasks, par::bench_threads())
        .expect("stormy cluster still completes");
        let summary = report.summary();
        let cost = price.cluster_workload_cost(&report.records);
        let c = report.chaos;
        writeln!(
            ctx.out,
            "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{cost:.4}\t{:.4}",
            summary.merged.execution.count,
            c.crashes,
            c.retries,
            c.abandoned,
            c.straggled_tasks,
            report.overload.total_shed(),
            report.overload.breaker_trips,
            c.recoveries,
            c.unrecovered,
            c.mean_recovery().as_secs_f64(),
            summary.merged.response.p99.as_secs_f64(),
            c.churn_cost_usd,
        )?;
    }
    Ok(())
}

/// autoscale: an 8-minute diurnal trace (±60% swing) through the
/// streaming path against a fleet of up to 8 machines. Rows: pinned at
/// the trough size, pinned at the peak size, and the autoscaler riding
/// the swing between them.
pub(crate) fn autoscale(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let max_machines = 8;
    let min_machines = 2;
    let cfg = diurnal_cluster_trace_cfg(max_machines);
    let total = ClusterTaskStream::new(&cfg, 1).total_invocations();
    let scaler = AutoscaleConfig {
        min_machines,
        high_watermark: 96.0,
        low_watermark: 24.0,
        check_interval: SimDuration::from_secs(5),
        cooldown: SimDuration::from_secs(15),
        boot_lag: SimDuration::from_secs(2),
    };
    let rows = [
        ("fixed-2", min_machines, None),
        ("fixed-8", max_machines, None),
        ("autoscale-2..8", max_machines, Some(scaler)),
    ];
    writeln!(
        ctx.out,
        "# autoscale | diurnal W2-rate trace, 8 minutes, +/-60% swing \
         ({total} invocations), firecracker cold starts, hybrid(25,25) nodes, \
         least-outstanding dispatch, streaming run"
    )?;
    writeln!(
        ctx.out,
        "row\tcompleted\tmachines\tscale_ups\tscale_downs\tpeak_active\t\
         max_live_tasks\tp99_response_s\tcost_usd"
    )?;
    let opts = StreamOptions {
        price: Some(PriceModel::duration_only()),
        ..StreamOptions::default()
    };
    for (name, machines, autoscale) in rows {
        let mut fleet = ClusterConfig::new(machines, paper_machine())
            .with_cold_start(ColdStartConfig::firecracker());
        if let Some(scaler) = autoscale {
            fleet = fleet.with_autoscale(scaler);
        }
        let report = Cluster::new(fleet, LeastOutstanding, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run_streaming(ClusterTaskStream::new(&cfg, 1), &opts, par::bench_threads())
        .expect("elastic cluster still completes");
        let merged = report.summary().merged.to_summary();
        let c = report.chaos;
        writeln!(
            ctx.out,
            "{name}\t{}\t{machines}\t{}\t{}\t{}\t{}\t{:.2}\t{:.4}",
            merged.response.count,
            c.scale_ups,
            c.scale_downs,
            c.peak_active,
            report.max_live_tasks(),
            merged.response.p99.as_secs_f64(),
            report.total_cost_usd(),
        )?;
    }
    Ok(())
}
