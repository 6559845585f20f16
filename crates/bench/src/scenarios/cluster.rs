//! Cluster scenarios: dispatch-policy comparisons on multi-machine
//! fleets (the scale-out axis the paper leaves open — its cost argument
//! is measured on one 50-core enclave, while providers run fleets of
//! them behind a routing tier).
//!
//! Each scenario drives one fleet size at `machines`× W2's request rate
//! through every stock front-end dispatch policy, with the Firecracker
//! cold-start model active (one concurrent invocation per instance, so
//! bursts boot regardless of routing and locality recovers the
//! between-burst revisits). The per-machine simulations of one cluster
//! run fan over `BENCH_THREADS` workers and merge in machine order, so
//! stdout is byte-identical at any thread count.

use faas_cluster::dispatch::{
    Dispatch, KeepAliveDispatch, LeastOutstanding, PowerOfTwoChoices, RandomDispatch,
    RoundRobinDispatch,
};
use faas_cluster::{
    workload_from_trace, Cluster, ClusterConfig, ClusterTask, ClusterTaskStream, ColdStartConfig,
    StreamOptions,
};
use faas_kernel::Scheduler;
use faas_policies::Fifo;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{cluster_xl_trace_cfg, paper_machine, par, peak_rss_mib, w2_cluster_trace};

/// Root seed of the randomized dispatch policies' choice streams
/// (independent of the machine seeds, which derive from the machine
/// template; `random` and `p2c` draw from distinct sub-streams of it).
const DISPATCH_SEED: u64 = 0xC105;

/// The five stock front-end policies, in presentation order.
fn dispatch_zoo() -> Vec<Box<dyn Dispatch>> {
    vec![
        Box::new(RandomDispatch::new(DISPATCH_SEED)),
        Box::new(RoundRobinDispatch::new()),
        Box::new(PowerOfTwoChoices::new(DISPATCH_SEED)),
        Box::new(LeastOutstanding),
        Box::new(KeepAliveDispatch),
    ]
}

fn fleet_config(machines: usize) -> ClusterConfig {
    ClusterConfig::new(machines, paper_machine()).with_cold_start(ColdStartConfig::firecracker())
}

/// Runs one `(dispatch, per-machine scheduler)` cell and writes its row:
/// merged p99 response/execution, fleet dollar cost, cold starts, and the
/// per-machine p99-response spread (the imbalance tell).
fn write_comparison<P: Scheduler + Send>(
    ctx: &mut ScenarioCtx<'_>,
    machines: usize,
    tasks: &[ClusterTask],
    make_policy: impl Fn(usize) -> P + Sync + Copy,
) -> ScenarioResult {
    writeln!(
        ctx.out,
        "dispatch\tp99_response_s\tp99_execution_s\tcost_usd\tcold_starts\tmachine_p99_resp_spread_s"
    )?;
    for dispatch in dispatch_zoo() {
        let report = Cluster::new(fleet_config(machines), dispatch, make_policy)
            .run(tasks, par::bench_threads())
            .expect("cluster completes");
        let summary = report.summary();
        let s = summary.merged;
        let cost = PriceModel::duration_only().cluster_workload_cost(&report.records);
        let (lo, hi) = summary.response_p99_spread();
        writeln!(
            ctx.out,
            "{}\t{:.2}\t{:.2}\t{cost:.4}\t{}\t{:.2}-{:.2}",
            report.dispatch,
            s.response.p99.as_secs_f64(),
            s.execution.p99.as_secs_f64(),
            report.cold_starts,
            lo.as_secs_f64(),
            hi.as_secs_f64(),
        )?;
    }
    Ok(())
}

/// Shared scenario body: one fleet size, W2 × machines RPS.
fn cluster_comparison(
    ctx: &mut ScenarioCtx<'_>,
    id: &str,
    machines: usize,
    include_fifo_nodes: bool,
) -> ScenarioResult {
    let trace = w2_cluster_trace(machines);
    let tasks = workload_from_trace(&trace, par::bench_threads());
    writeln!(
        ctx.out,
        "# {id} | {machines} machines x 50 cores, W2 x{machines} RPS ({} invocations), firecracker cold starts",
        tasks.len()
    )?;
    writeln!(ctx.out, "## per-machine scheduler = hybrid(25,25)")?;
    write_comparison(ctx, machines, &tasks, |_| {
        HybridScheduler::new(HybridConfig::paper_25_25())
    })?;
    if include_fifo_nodes {
        writeln!(ctx.out, "## per-machine scheduler = fifo")?;
        write_comparison(ctx, machines, &tasks, |_| Fifo::new())?;
    }
    Ok(())
}

/// cluster01: 4 machines; also crosses the per-machine scheduler axis
/// (hybrid nodes vs plain-FIFO nodes) at this small size.
pub(crate) fn cluster01(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    cluster_comparison(ctx, "cluster01", 4, true)
}

/// cluster02: 16 machines, hybrid nodes.
pub(crate) fn cluster02(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    cluster_comparison(ctx, "cluster02", 16, false)
}

/// cluster03: 64 machines, hybrid nodes — the heaviest scenario in the
/// registry (256 W2-scale machine simulations at full scale).
pub(crate) fn cluster03(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    cluster_comparison(ctx, "cluster03", 64, false)
}

/// Shared body of the `cluster-xl` scenarios: one provider-scale fleet
/// driven through [`Cluster::run_streaming`] over a lazily generated
/// hour trace. The merged trace never exists in memory — the front end
/// sees one minute at a time and every machine retires finished records
/// into O(sketch) accumulators — so peak RSS is set by the arrival rate,
/// not the invocation count.
///
/// Stdout carries only deterministic values (sketched quantiles, exact
/// counts/cost, peak live tasks, sketch tuples), byte-identical at any
/// `BENCH_THREADS`; wall-clock and peak RSS go to **stderr**.
fn cluster_xl(ctx: &mut ScenarioCtx<'_>, id: &str, machines: usize) -> ScenarioResult {
    let cfg = cluster_xl_trace_cfg(machines);
    let stream = ClusterTaskStream::new(&cfg, 1);
    let total = stream.total_invocations();
    writeln!(
        ctx.out,
        "# {id} | {machines} machines x 50 cores, W2-rate hour trace x{machines} RPS \
         ({total} invocations), firecracker cold starts, streaming run"
    )?;
    writeln!(
        ctx.out,
        "dispatch\tinvocations\tp50_response_s\tp99_response_s\tp999_response_s\t\
         p99_execution_s\tcost_usd\tcold_starts\tmachine_p99_resp_spread_s\t\
         peak_live_tasks\tsketch_tuples"
    )?;
    let opts = StreamOptions {
        price: Some(PriceModel::duration_only()),
        ..StreamOptions::default()
    };
    let started = std::time::Instant::now();
    let report = Cluster::new(fleet_config(machines), KeepAliveDispatch, |_| {
        HybridScheduler::new(HybridConfig::paper_25_25())
    })
    .run_streaming(stream, &opts, par::bench_threads())
    .expect("streaming cluster completes");
    let wall = started.elapsed();
    let summary = report.summary();
    let merged = summary.merged.to_summary();
    let (lo, hi) = summary.response_p99_spread();
    writeln!(
        ctx.out,
        "{}\t{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.4}\t{}\t{:.2}-{:.2}\t{}\t{}",
        report.dispatch,
        merged.response.count,
        merged.response.p50.as_secs_f64(),
        merged.response.p99.as_secs_f64(),
        summary.merged.response.p999().as_secs_f64(),
        merged.execution.p99.as_secs_f64(),
        report.total_cost_usd(),
        report.cold_starts,
        lo.as_secs_f64(),
        hi.as_secs_f64(),
        report.max_live_tasks(),
        summary.tuple_count(),
    )?;
    // Host-dependent numbers stay off the CI-diffed stdout.
    let rss = peak_rss_mib().map_or_else(|| "n/a".to_string(), |m| format!("{m} MiB"));
    eprintln!(
        "# {id}: wall-clock {:.1}s, peak RSS {rss}, {} kernel events",
        wall.as_secs_f64(),
        report.events_processed(),
    );
    Ok(())
}

/// cluster-xl-512: 512 machines over an hour-scale trace (~191M
/// invocations at full scale), streamed.
pub(crate) fn cluster_xl_512(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    cluster_xl(ctx, "cluster-xl-512", 512)
}

/// cluster-xl-1024: 1024 machines over an hour-scale trace (~382M
/// invocations at full scale), streamed.
pub(crate) fn cluster_xl_1024(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    cluster_xl(ctx, "cluster-xl-1024", 1024)
}
