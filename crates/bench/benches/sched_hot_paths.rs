//! Microbenchmarks of the scheduler hot paths: the per-event work each
//! policy does (enqueue, pick-next, preempt bookkeeping), the sliding
//! window percentile, the event queue, and trace synthesis.
//!
//! Each policy benchmark declares its kernel-event count, so the harness
//! reports events/sec — the per-event cost of the whole loop (kernel
//! bookkeeping + idle-core offers + policy decision), at 4 cores and, in
//! `core_scaling`, at 4, 50 and 100 cores under the same load per core,
//! in `light_load`, on a lightly loaded 50-core hybrid whose long
//! functions run alone on their CFS cores, in `saturated`, on 50
//! cores whose CFS queues stay long, and, in `table1_w2`, on the paper's
//! Table I enclave at full scale.
//! Results are written to `BENCH_sched.json` at the workspace root: the
//! committed baseline future PRs diff against. Set `BENCH_QUICK` for the
//! CI smoke run.

use std::convert::identity;

use faas_bench::paper_machine;
use faas_bench::timing::{black_box, Bench};

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{KeepAliveDispatch, LeastOutstanding, RoundRobinDispatch};
use faas_cluster::{
    AutoscaleConfig, BackoffConfig, BreakerConfig, ChaosConfig, Cluster, ClusterConfig,
    ClusterTask, ClusterTaskStream, ColdStartConfig, Dispatch, EjectionConfig, FaultPlan,
    FaultPlanConfig, FrontEnd, HealthConfig, HedgeConfig, OverloadConfig, StreamOptions,
};
use faas_kernel::{CostModel, MachineConfig, MachineRun, Scheduler, Simulation, TaskSpec};
use faas_simcore::{EventQueue, SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler, SlidingWindow, TimeLimitPolicy};

/// Where the machine-readable baseline lands (the workspace root).
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");

/// Quick-mode (`BENCH_QUICK`) runs land here instead, so a CI smoke run
/// or a local smoke run can never clobber the committed full-fidelity
/// baseline with 3-sample noise. Gitignored.
const QUICK_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.quick.json");

fn specs(n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let work = if i % 10 == 0 { 400 } else { 20 };
            TaskSpec::function(
                SimTime::from_millis(i as u64),
                SimDuration::from_millis(work),
                128,
            )
        })
        .collect()
}

/// Runs `specs` to completion on a `cores`-core machine with the default
/// cost model and returns the kernel event count.
fn run_machine<P: Scheduler>(cores: usize, specs: &[TaskSpec], policy: P) -> u64 {
    run_on(
        MachineConfig::new(cores).with_cost(CostModel::default()),
        specs,
        policy,
    )
}

/// Runs `specs` to completion on a machine built from `cfg` and returns
/// the kernel event count.
fn run_on<P: Scheduler>(cfg: MachineConfig, specs: &[TaskSpec], policy: P) -> u64 {
    let report = MachineRun::new(cfg, specs, policy).run_slim().unwrap();
    black_box(report.finished_at);
    report.events_processed
}

fn run_sim<P: Scheduler>(cores: usize, n: usize, policy: P) -> u64 {
    let cfg = MachineConfig::new(cores).with_cost(CostModel::default());
    let mut sim = Simulation::new(cfg, specs(n), policy);
    while sim.step().unwrap() {}
    black_box(sim.machine().now());
    sim.machine().events_processed()
}

fn bench_policies(c: &mut Bench) {
    let mut g = c.benchmark_group("policy_event_loop_500_tasks");
    g.sample_size(10);
    macro_rules! policy_bench {
        ($name:literal, $make:expr) => {
            // One untimed run determines the deterministic event count so
            // the harness can report events/sec.
            g.bench_counted($name, || run_sim(4, 500, $make), identity);
        };
    }
    policy_bench!("fifo", faas_policies::Fifo::new());
    policy_bench!("cfs", faas_policies::Cfs::with_cores(4));
    policy_bench!(
        "round_robin",
        faas_policies::Fifo::round_robin(SimDuration::from_millis(10))
    );
    policy_bench!("edf", faas_policies::Edf::new());
    policy_bench!(
        "shinjuku",
        faas_policies::Fifo::shinjuku(SimDuration::from_millis(1))
    );
    policy_bench!(
        "hybrid",
        HybridScheduler::new(
            HybridConfig::split(2, 2)
                .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(100)))
        )
    );
    g.finish();
}

/// Per-event kernel + policy cost against core count at constant load per
/// core: 125 tasks per core with the `specs` work mix (mean 58 ms), one
/// arrival every 64 ms ÷ cores, so each core is about 90% busy at 4, 50
/// and 100 cores alike. Flat events/sec across a policy's three rows means
/// the per-event path does not pay for idle cores (offers, steal scans);
/// a drop with core count is per-core creep. The hybrid splits its cores
/// half/half with the 100 ms limit of the `policy_event_loop_500_tasks`
/// row, so the 400 ms tasks migrate to its CFS side.
fn bench_core_scaling(c: &mut Bench) {
    let mut g = c.benchmark_group("core_scaling");
    g.sample_size(10);
    for cores in [4usize, 50, 100] {
        let specs: Vec<TaskSpec> = specs(125 * cores)
            .into_iter()
            .enumerate()
            .map(|(i, mut spec)| {
                spec.arrival = SimTime::from_micros(i as u64 * 64_000 / cores as u64);
                spec
            })
            .collect();
        let hybrid = || {
            HybridScheduler::new(
                HybridConfig::split(cores / 2, cores - cores / 2)
                    .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(100))),
            )
        };
        macro_rules! scaling_bench {
            ($policy:literal, $make:expr) => {
                // One untimed run fixes the deterministic event count.
                g.bench_counted(
                    format!("{}_{cores}c", $policy),
                    || run_machine(cores, &specs, $make),
                    identity,
                );
            };
        }
        scaling_bench!("fifo", faas_policies::Fifo::new());
        scaling_bench!("cfs", faas_policies::Cfs::with_cores(cores));
        scaling_bench!("hybrid", hybrid());
    }
    g.finish();
}

/// The regime the loaded node of a provider-scale fleet spends most of its
/// kernel events in: a 25+25-core hybrid at light load, where each long
/// function runs alone on its CFS core and most events are its 24 ms
/// slice expiries, which the kernel renews without a policy call. One
/// arrival every 20 ms; every tenth is a 2 s function, the rest 20 ms.
/// With the 100 ms limit of the `core_scaling` hybrid rows, the FIFO side
/// is about 6% busy and the CFS side about 38%, and round-robin placement
/// hands each CFS core a new long function only every 5 s, so they never
/// share a core. The untimed run panics unless most of its events are
/// such kernel renewals.
fn bench_light_load(c: &mut Bench) {
    let mut g = c.benchmark_group("light_load");
    g.sample_size(10);
    let specs: Vec<TaskSpec> = (0..2_500u64)
        .map(|i| {
            let work = if i % 10 == 0 { 2_000 } else { 20 };
            TaskSpec::function(
                SimTime::from_millis(20 * i),
                SimDuration::from_millis(work),
                128,
            )
        })
        .collect();
    let run = || {
        let hybrid = HybridScheduler::new(
            HybridConfig::split(25, 25)
                .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(100))),
        );
        let cfg = MachineConfig::new(50).with_cost(CostModel::default());
        let mut run = MachineRun::new(cfg, &specs, hybrid);
        run.run_to_end().unwrap();
        black_box(run.machine().now());
        (run.machine().events_processed(), run.renewals())
    };
    // One untimed run fixes the deterministic event count.
    g.bench_counted("hybrid_50c", run, |(events, renewals)| {
        assert!(
            2 * renewals > events,
            "light_load/hybrid_50c: {renewals} kernel renewals in {events} events"
        );
        events
    });
    g.finish();
}

/// The regime the paper's Table I spends its CFS time in: a burst of
/// 5,000 arrivals of the `specs` work mix in the first 250 ms on 50
/// cores, about 5.8 s of work per core. The CFS queues stay long, so most
/// events are slice expiries that hand the core to another queued task:
/// 46,173 of 62,470 under CFS. The hybrid splits its cores 25+25 with the
/// 100 ms limit of the `core_scaling` rows, so the 400 ms tasks crowd its
/// CFS side: 15,213 of its 26,545 events are such hand-offs.
fn bench_saturated(c: &mut Bench) {
    let mut g = c.benchmark_group("saturated");
    g.sample_size(10);
    let specs: Vec<TaskSpec> = specs(5_000)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            spec.arrival = SimTime::from_micros(i as u64 * 50);
            spec
        })
        .collect();
    let hybrid = || {
        HybridScheduler::new(
            HybridConfig::split(25, 25)
                .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(100))),
        )
    };
    // One untimed run per row fixes the deterministic event count.
    g.bench_counted(
        "cfs_50c",
        || run_machine(50, &specs, faas_policies::Cfs::with_cores(50)),
        identity,
    );
    g.bench_counted("hybrid_50c", || run_machine(50, &specs, hybrid()), identity);
    g.finish();
}

/// The paper's Table I at full scale, the shape of the benchmark's
/// `enclave-w2` workload: the whole W2 trace (12,442 invocations over two
/// minutes, 1.82x the enclave's capacity) on `paper_machine()`, 50 cores
/// with host interference on. Under CFS, 3.40 M of its 3.44 M kernel
/// events are slice expiries, nearly all re-dispatching the expiring core
/// in place; the hybrid's 25+25 split runs 228,185 events. Three samples,
/// as one CFS run takes about half a second.
fn bench_table1_w2(c: &mut Bench) {
    let mut g = c.benchmark_group("table1_w2");
    g.sample_size(3);
    let specs = AzureTrace::generate(&TraceConfig::w2()).to_task_specs();
    let cfs = || run_on(paper_machine(), &specs, faas_policies::Cfs::with_cores(50));
    let hybrid = || {
        run_on(
            paper_machine(),
            &specs,
            HybridScheduler::new(HybridConfig::paper_25_25()),
        )
    };
    // One untimed run per row fixes the deterministic event count.
    g.bench_counted("cfs_50c", cfs, identity);
    g.bench_counted("hybrid_50c", hybrid, identity);
    g.finish();
}

/// The cluster layer's whole-pipeline cost: front-end dispatch pass plus
/// M machine event loops. The machine fan is pinned to one thread
/// (`Cluster::run(.., 1)`) so the wall-clock sample measures per-event
/// work, not the host's core count; events/sec counts every machine's
/// kernel events.
fn bench_cluster(c: &mut Bench) {
    let mut g = c.benchmark_group("cluster_4x4cores_2k_tasks");
    g.sample_size(10);
    let tasks: Vec<ClusterTask> = specs(2_000)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| ClusterTask {
            spec,
            function: (i % 11) as u64,
        })
        .collect();
    // A full middleware stack (caps, token buckets, timeouts with kernel
    // cancellation, breaker) for the overload row — the per-invocation
    // front-end tax plus the shed work it removes from the kernels.
    let overload_stack = || {
        OverloadConfig::default()
            .with_concurrency_limit(8)
            .with_rate_limit(50, 20)
            .with_deadline(SimDuration::from_millis(500))
            .with_kernel_cancel()
            .with_breaker(BreakerConfig {
                window: 32,
                trip_pct: 50,
                cooldown: SimDuration::from_secs(1),
            })
    };
    let run_cluster = |dispatch: Box<dyn Dispatch>,
                       cold: Option<ColdStartConfig>,
                       overload: OverloadConfig| {
        let mut cfg = ClusterConfig::new(4, MachineConfig::new(4).with_cost(CostModel::default()))
            .with_overload(overload);
        if let Some(cold) = cold {
            cfg = cfg.with_cold_start(cold);
        }
        let report = Cluster::new(cfg, dispatch, |_| faas_policies::Fifo::new())
            .run(&tasks, 1)
            .unwrap();
        black_box(report.finished_at());
        report
            .machines
            .iter()
            .map(|m| m.events_processed)
            .sum::<u64>()
    };
    macro_rules! cluster_bench {
        ($name:literal, $dispatch:expr, $cold:expr, $overload:expr) => {
            // One untimed run determines the deterministic kernel-event
            // count across all machines, so the harness reports the same
            // events/sec unit as the single-machine policy benches.
            g.bench_counted(
                $name,
                || run_cluster(Box::new($dispatch), $cold, $overload),
                identity,
            );
        };
    }
    cluster_bench!(
        "least_outstanding",
        LeastOutstanding,
        None,
        OverloadConfig::default()
    );
    cluster_bench!(
        "keep_alive_cold_starts",
        KeepAliveDispatch,
        Some(ColdStartConfig::firecracker()),
        OverloadConfig::default()
    );
    cluster_bench!(
        "least_outstanding_overload_stack",
        LeastOutstanding,
        None,
        overload_stack()
    );
    // The chaos row: same fleet shape under a seeded fault plan (crashes
    // dooming in-flight work into the re-dispatch queue, straggler
    // windows inflating kernel work) with the autoscaler riding the
    // backlog — the per-event cost of the whole chaos fold on top of
    // dispatch. Tasks are spread over a minute so the per-minute fault
    // streams actually land inside the run.
    let chaos_tasks: Vec<ClusterTask> = specs(2_000)
        .into_iter()
        .enumerate()
        .map(|(i, mut task)| {
            task.arrival = SimTime::from_millis(30 * i as u64);
            ClusterTask {
                spec: task,
                function: (i % 11) as u64,
            }
        })
        .collect();
    let chaos_plan = FaultPlan::generate(
        &FaultPlanConfig::new(0x0BE2_4C40, 1)
            .with_crashes(6.0, SimDuration::from_millis(500))
            .with_stragglers(4.0, SimDuration::from_secs(5), 2.0),
        4,
    );
    let run_chaos = || {
        let cfg = ClusterConfig::new(4, MachineConfig::new(4).with_cost(CostModel::default()))
            .with_chaos(ChaosConfig::new(chaos_plan.clone()).with_slo(SimDuration::from_secs(1)))
            .with_autoscale(AutoscaleConfig {
                min_machines: 2,
                high_watermark: 16.0,
                low_watermark: 4.0,
                check_interval: SimDuration::from_millis(250),
                cooldown: SimDuration::from_secs(1),
                boot_lag: SimDuration::from_millis(125),
            });
        let report = Cluster::new(cfg, LeastOutstanding, |_| faas_policies::Fifo::new())
            .run(&chaos_tasks, 1)
            .unwrap();
        black_box(report.finished_at());
        report
            .machines
            .iter()
            .map(|m| m.events_processed)
            .sum::<u64>()
    };
    g.bench_counted("chaos_autoscale_fault_plan", run_chaos, identity);
    // The health row: same stormy fleet with the full node-health
    // feedback loop armed (completion-report heap + EWMAs, outlier
    // ejection with probes, hedged requests, retry backoff) — the
    // per-event cost of the whole feedback fold on top of chaos.
    let run_health = || {
        let cfg = ClusterConfig::new(4, MachineConfig::new(4).with_cost(CostModel::default()))
            .with_chaos(
                ChaosConfig::new(chaos_plan.clone())
                    .with_slo(SimDuration::from_secs(1))
                    .with_backoff(
                        BackoffConfig::new(0x0BAC_0FF5)
                            .with_delays(SimDuration::from_millis(50), SimDuration::from_secs(5)),
                    ),
            )
            .with_health(
                HealthConfig::default()
                    .with_ejection(
                        EjectionConfig::default()
                            .with_probation(SimDuration::from_secs(1))
                            .with_min_samples(8),
                    )
                    .with_hedge(HedgeConfig::default().with_min_samples(64)),
            );
        let report = Cluster::new(cfg, LeastOutstanding, |_| faas_policies::Fifo::new())
            .run(&chaos_tasks, 1)
            .unwrap();
        black_box(report.finished_at());
        report
            .machines
            .iter()
            .map(|m| m.events_processed)
            .sum::<u64>()
    };
    g.bench_counted("health_ejection_hedging_backoff", run_health, identity);
    g.finish();
}

/// The streaming cluster path at provider shape: 512 × 50-core machines
/// over a downscaled hour trace fed minute by minute (never
/// materialized), paper hybrid nodes, Firecracker cold starts. Fan
/// pinned to one thread like `bench_cluster`, so the sample measures
/// per-event work. Keep-alive dispatch packs the work onto one machine;
/// the `stream_rr_*` row spreads it round-robin over 128 machines with
/// host interference on, so every machine is built and idles for most of
/// the hour, which is what an idle machine costs. The workload sizes are
/// fixed (no `SCALE_DIV`) so the baseline rows stay comparable across
/// runs; events/sec uses the deterministic fleet-wide kernel-event count.
/// Peak RSS is printed as a stdout note — the streaming contract keeps it
/// O(in-flight + fed machines × sketch) regardless of trace length
/// (pinned by the cluster differential and live-bytes tests), so it is
/// informational, not a diffed row.
fn bench_cluster_xl(c: &mut Bench) {
    let mut g = c.benchmark_group("cluster_xl");
    g.sample_size(3);
    let hour = TraceConfig {
        minutes: 60,
        total_invocations: 373_260,
        ..TraceConfig::w2()
    };
    let cfg = hour.clone().rps_scaled(512).downscaled(2_048);
    let run = || {
        let cluster_cfg =
            ClusterConfig::new(512, MachineConfig::new(50).with_cost(CostModel::default()))
                .with_cold_start(ColdStartConfig::firecracker());
        let report = Cluster::new(cluster_cfg, KeepAliveDispatch, |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run_streaming(
            ClusterTaskStream::new(&cfg, 1),
            &StreamOptions::default(),
            1,
        )
        .unwrap();
        black_box(report.finished_at());
        report.events_processed()
    };
    g.bench_counted("stream_512x50c_hour_div2048", run, identity);

    // The spread stream: round-robin dispatch feeds every machine, so
    // every machine is built and mostly idle for the whole hour. Paper
    // machines (host interference on), the per-machine rate of a
    // 1,024-node fleet at 1/8192, on an eighth of that fleet.
    let spread_machines = 128;
    let spread_cfg = hour.rps_scaled(spread_machines).downscaled(8_192);
    let run_spread = || {
        let cluster_cfg = ClusterConfig::new(spread_machines, paper_machine())
            .with_cold_start(ColdStartConfig::firecracker());
        let report = Cluster::new(cluster_cfg, RoundRobinDispatch::new(), |_| {
            HybridScheduler::new(HybridConfig::paper_25_25())
        })
        .run_streaming(
            ClusterTaskStream::new(&spread_cfg, 1),
            &StreamOptions::default(),
            1,
        )
        .unwrap();
        black_box(report.finished_at());
        report.events_processed()
    };
    g.bench_counted("stream_rr_128x50c_hour_div8192", run_spread, identity);
    g.finish();
    if let Some(mib) = faas_bench::peak_rss_mib() {
        println!(
            "  cluster_xl peak RSS so far: {mib} MiB (streaming run holds O(in-flight + fed machines x sketch))"
        );
    }
}

/// The dispatch tier alone at fleet scale: the front-end fold (routing,
/// middleware, health feedback) over a fixed arrival stream with **no
/// kernel runs attached**, at M ∈ {16, 256, 1024} machines. This is the
/// per-invocation cost the indexed-heap front end bounds at O(log M):
/// before PR 10 every row here scaled linearly with M (full-fleet scans
/// for least-wait/least-outstanding/warmth, per-arrival drain walks),
/// which the 1024-machine rows make visible at a glance. The health
/// rows' faults rarely land inside the 2 s stream and their ejection
/// threshold is never met, so the `dispatch_ejecting` rows arm a
/// threshold low enough to keep machines ejected for most of the stream:
/// they watch the restricted-candidate path. events/sec is invocations
/// routed per second of front-end time.
fn bench_frontend_scale(c: &mut Bench) {
    let mut g = c.benchmark_group("frontend_scale");
    g.sample_size(10);
    let invocations = 4_096usize;
    let tasks: Vec<ClusterTask> = (0..invocations)
        .map(|i| {
            let work = if i % 10 == 0 { 40 } else { 4 };
            let spec = TaskSpec::function(
                SimTime::from_micros(i as u64 * 500),
                SimDuration::from_millis(work),
                128,
            );
            ClusterTask {
                spec,
                function: (i % 37) as u64,
            }
        })
        .collect();
    let run_fold = |cfg: &ClusterConfig, tasks: &[ClusterTask]| {
        let mut policy = KeepAliveDispatch;
        let mut fe = FrontEnd::new(cfg);
        let a = fe.dispatch_chunk(tasks, &mut policy);
        black_box(a.cold_starts);
        let tail = fe.finish(&mut policy);
        black_box(tail.cold_starts)
    };
    for machines in [16usize, 256, 1024] {
        let bare = ClusterConfig::new(machines, MachineConfig::new(4))
            .with_cold_start(ColdStartConfig::firecracker());
        let overload = bare.clone().with_overload(
            OverloadConfig::default()
                .with_concurrency_limit(64)
                .with_deadline(SimDuration::from_secs(2))
                .with_breaker(BreakerConfig {
                    window: 32,
                    trip_pct: 50,
                    cooldown: SimDuration::from_secs(1),
                }),
        );
        // The stream lasts 2.05 s of the plan's minute: the rates are high
        // enough that crashes and straggler windows land inside it.
        let plan = FaultPlan::generate(
            &FaultPlanConfig::new(0x0F2E_57A7, 1)
                .with_crashes(120.0, SimDuration::from_millis(500))
                .with_stragglers(300.0, SimDuration::from_secs(5), 2.0),
            machines,
        );
        let health = bare
            .clone()
            .with_chaos(ChaosConfig::new(plan).with_slo(SimDuration::from_secs(1)))
            .with_health(
                HealthConfig::default()
                    .with_ejection(
                        EjectionConfig::default()
                            .with_probation(SimDuration::from_secs(1))
                            .with_min_samples(8),
                    )
                    .with_hedge(HedgeConfig::default().with_min_samples(64)),
            );
        let ejecting = bare.clone().with_health(
            HealthConfig::default().with_ejection(
                EjectionConfig::default()
                    .with_threshold(1.2)
                    .with_probation(SimDuration::from_secs(1))
                    .with_min_samples(4),
            ),
        );
        // Dispatched only, without `finish`: the fold as far as the
        // checks below look.
        let dispatched = |cfg: &ClusterConfig| {
            let mut fe = FrontEnd::new(cfg);
            fe.dispatch_chunk(&tasks, &mut KeepAliveDispatch);
            fe
        };
        g.throughput(invocations as u64);
        g.bench_function(format!("dispatch_bare_{machines}m"), |b| {
            b.iter(|| run_fold(&bare, &tasks))
        });
        g.bench_function(format!("dispatch_overload_{machines}m"), |b| {
            b.iter(|| run_fold(&overload, &tasks))
        });
        // Checked once, outside the timed loop, when the row runs: each
        // row is only worth its place while it does the work its name
        // promises. The health row crashes machines and straggles tasks
        // during dispatch; the ejecting row ejects and dispatches around
        // the ejected.
        g.bench_counted(
            format!("dispatch_health_{machines}m"),
            || run_fold(&health, &tasks),
            |_| {
                let chaos = dispatched(&health).chaos_stats();
                assert!(
                    chaos.crashes > 0 && chaos.straggled_tasks > 0,
                    "dispatch_health_{machines}m must crash ({}) and straggle ({})",
                    chaos.crashes,
                    chaos.straggled_tasks
                );
                invocations as u64
            },
        );
        g.bench_counted(
            format!("dispatch_ejecting_{machines}m"),
            || run_fold(&ejecting, &tasks),
            |_| {
                let fe = dispatched(&ejecting);
                let (ejections, restricted) =
                    (fe.health_stats().0.ejections, fe.fold_counters().restricted);
                assert!(
                    ejections > 0 && restricted > 0,
                    "dispatch_ejecting_{machines}m must eject ({ejections}) and restrict ({restricted})"
                );
                invocations as u64
            },
        );
    }
    bench_dispatch_control(&mut g);
    g.finish();
}

/// The fold at the shape perfbench's `control-plane` workload claims:
/// its whole stack (admission cap, 5 s deadline with kernel cancel,
/// crashes, stragglers, backoff retries, ejection, hedging) over 128
/// 50-core nodes under `LeastOutstanding`, fed the first 15 s of its
/// W2 × 32 stream — the workload's per-node load at an eighth of its
/// length, so a quick run stays short.
fn bench_dispatch_control(g: &mut faas_bench::timing::Group<'_>) {
    let machines = 128;
    let price = lambda_pricing::PriceModel::duration_only();
    let faults = FaultPlanConfig::new(0x00BA_C0FF, 2)
        .with_crashes(8.0, SimDuration::from_secs(4))
        .with_stragglers(2.0, SimDuration::from_secs(30), 8.0);
    let cfg = ClusterConfig::new(machines, paper_machine())
        .with_cold_start(ColdStartConfig::firecracker())
        .with_overload(
            OverloadConfig::default()
                .with_concurrency_limit(320)
                .with_deadline(SimDuration::from_secs(5))
                .with_kernel_cancel()
                .with_price(price),
        )
        .with_chaos(
            ChaosConfig::new(FaultPlan::generate(&faults, machines))
                .with_max_retries(1)
                .with_slo(SimDuration::from_secs(2))
                .with_price(price)
                .with_backoff(
                    BackoffConfig::new(0x0BAC_0FF5)
                        .with_delays(SimDuration::from_millis(250), SimDuration::from_secs(30))
                        .with_jitter(0.25),
                ),
        )
        .with_health(
            HealthConfig::default()
                .with_ejection(
                    EjectionConfig::default()
                        .with_threshold(2.0)
                        .with_probation(SimDuration::from_secs(5))
                        .with_min_samples(8),
                )
                .with_hedge(
                    HedgeConfig::default()
                        .with_min_samples(256)
                        .with_price(price),
                ),
        );
    let trace = AzureTrace::generate(&TraceConfig::w2().rps_scaled(32));
    let mut tasks = faas_cluster::workload_from_trace(&trace, 1);
    tasks.retain(|t| t.spec.arrival < SimTime::from_secs(15));
    let run = || {
        let mut fe = FrontEnd::new(&cfg);
        let a = fe.dispatch_chunk(&tasks, &mut LeastOutstanding);
        black_box(a.cold_starts);
        black_box(fe.finish(&mut LeastOutstanding).cold_starts);
        fe
    };
    // Checked once, outside the timed loop, when the row runs: the row
    // is only worth its place while every stage of the stack acts.
    g.bench_counted("dispatch_control_128m", run, |fe| {
        let (health, chaos, overload) =
            (fe.health_stats().0, fe.chaos_stats(), fe.overload_stats());
        assert!(
            health.ejections > 0
                && health.hedges > 0
                && chaos.crashes > 0
                && overload.total_shed() > 0,
            "dispatch_control_128m must eject, hedge, crash and shed: {health:?} {chaos:?} {overload:?}"
        );
        tasks.len() as u64
    });
}

fn bench_primitives(c: &mut Bench) {
    let mut g = c.benchmark_group("primitives");
    g.throughput(1_000);
    // One queue reused across iterations via `clear()` — the steady-state
    // (allocation-free) cost the kernel loop actually sees.
    let mut q = EventQueue::new();
    g.bench_function("event_queue_schedule_pop_1k", |b| {
        b.iter(|| {
            q.clear();
            for i in 0..1_000u64 {
                q.schedule(SimTime::from_micros((i * 7) % 997), i);
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        })
    });
    // The kernel's slice-timer pattern: 50 timers, one per busy core,
    // each re-armed at the same delay as it fires (the CFS slice plus a
    // context switch), among 50 far heap timers (one interference episode
    // per core). Every re-arm appends to one delay lane.
    let mut q = EventQueue::new();
    for core in 0..50u64 {
        q.schedule(SimTime::from_secs(1_000_000_000 + core), core);
        q.schedule_after(SimTime::ZERO, SimDuration::from_micros(60 * core + 1), core);
    }
    g.bench_function("event_queue_rearm_50_lane_timers_1k", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                let (now, core) = q.pop().expect("50 timers pending");
                q.schedule_after(now, SimDuration::from_micros(3_005), black_box(core));
            }
        })
    });
    let mut h: faas_simcore::MinHeap4<(i64, u64)> = faas_simcore::MinHeap4::new();
    g.bench_function("minheap4_push_pop_1k", |b| {
        b.iter(|| {
            h.clear();
            for i in 0..1_000u64 {
                h.push((((i * 7) % 997) as i64, i));
            }
            while let Some(k) = h.pop_min() {
                black_box(k);
            }
        })
    });
    g.finish();
    // ns-per-op rows (no events_per_iter): grouped so no baseline row
    // carries an empty `"group"` label.
    let mut g = c.benchmark_group("primitives_scalar");
    g.bench_function("sliding_window_push_percentile", |b| {
        let mut w = SlidingWindow::new(100);
        for i in 0..100u64 {
            w.push(SimDuration::from_millis(i));
        }
        b.iter(|| {
            w.push(SimDuration::from_millis(black_box(42)));
            black_box(w.percentile(0.95))
        })
    });
    g.bench_function("trace_generation_1k", |b| {
        b.iter(|| {
            let t = AzureTrace::generate(&TraceConfig::w2().downscaled(12));
            black_box(t.len())
        })
    });
    g.finish();
}

fn main() {
    let mut c = Bench::from_env();
    bench_policies(&mut c);
    bench_core_scaling(&mut c);
    bench_light_load(&mut c);
    bench_saturated(&mut c);
    bench_table1_w2(&mut c);
    bench_cluster(&mut c);
    bench_cluster_xl(&mut c);
    bench_frontend_scale(&mut c);
    bench_primitives(&mut c);
    if c.filtered() {
        println!("name filters active: not overwriting BENCH_sched.json");
        return;
    }
    let (path, label) = if c.quick() {
        (QUICK_PATH, "BENCH_sched.quick.json (quick mode)")
    } else {
        (BASELINE_PATH, "BENCH_sched.json")
    };
    match c.write_json(path) {
        Ok(()) => println!("baseline written: {label}"),
        Err(e) => eprintln!("warning: could not write {label}: {e}"),
    }
}
