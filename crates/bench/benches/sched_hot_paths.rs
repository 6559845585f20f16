//! Microbenchmarks of the scheduler hot paths: the per-event work each
//! policy does (enqueue, pick-next, preempt bookkeeping), the sliding
//! window percentile, the event queue, and trace synthesis.
//!
//! Each policy benchmark declares its kernel-event count, so the harness
//! reports events/sec — the per-event cost of the whole loop (kernel
//! bookkeeping + idle-core offers + policy decision), at 4 cores and, in
//! `core_scaling`, at 4, 50 and 100 cores under the same load per core,
//! in `light_load`, on a lightly loaded 50-core hybrid whose long
//! functions run alone on their CFS cores, and, in `saturated`, on 50
//! cores whose CFS queues stay long.
//! Results are written to `BENCH_sched.json` at the workspace root: the
//! committed baseline future PRs diff against. Set `BENCH_QUICK` for the
//! CI smoke run.

use faas_bench::timing::{black_box, Bench};

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{KeepAliveDispatch, LeastOutstanding};
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
    let cfg = MachineConfig::new(cores).with_cost(CostModel::default());
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
            let events = run_sim(4, 500, $make);
            g.throughput(events);
            g.bench_function($name, |b| b.iter(|| run_sim(4, 500, $make)));
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
                let events = run_machine(cores, &specs, $make);
                g.throughput(events);
                g.bench_function(format!("{}_{cores}c", $policy), |b| {
                    b.iter(|| run_machine(cores, &specs, $make))
                });
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
/// slice expiries, renewed in place. One arrival every 20 ms;
/// every tenth is a 2 s function, the rest 20 ms. With the 100 ms limit of
/// the `core_scaling` hybrid rows, the FIFO side is about 6% busy and the
/// CFS side about 38%, and round-robin placement hands each CFS core a new
/// long function only every 5 s, so they never share a core.
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
        run_machine(50, &specs, hybrid)
    };
    // One untimed run fixes the deterministic event count.
    let events = run();
    g.throughput(events);
    g.bench_function("hybrid_50c", |b| b.iter(run));
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
    g.throughput(run_machine(50, &specs, faas_policies::Cfs::with_cores(50)));
    g.bench_function("cfs_50c", |b| {
        b.iter(|| run_machine(50, &specs, faas_policies::Cfs::with_cores(50)))
    });
    g.throughput(run_machine(50, &specs, hybrid()));
    g.bench_function("hybrid_50c", |b| {
        b.iter(|| run_machine(50, &specs, hybrid()))
    });
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
                       overload: Option<OverloadConfig>| {
        let mut cfg = ClusterConfig::new(4, MachineConfig::new(4).with_cost(CostModel::default()));
        if let Some(cold) = cold {
            cfg = cfg.with_cold_start(cold);
        }
        if let Some(overload) = overload {
            cfg = cfg.with_overload(overload);
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
            let events = run_cluster(Box::new($dispatch), $cold, $overload);
            g.throughput(events);
            g.bench_function($name, |b| {
                b.iter(|| run_cluster(Box::new($dispatch), $cold, $overload))
            });
        };
    }
    cluster_bench!("least_outstanding", LeastOutstanding, None, None);
    cluster_bench!(
        "keep_alive_cold_starts",
        KeepAliveDispatch,
        Some(ColdStartConfig::firecracker()),
        None
    );
    cluster_bench!(
        "least_outstanding_overload_stack",
        LeastOutstanding,
        None,
        Some(overload_stack())
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
    let events = run_chaos();
    g.throughput(events);
    g.bench_function("chaos_autoscale_fault_plan", |b| b.iter(run_chaos));
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
    let events = run_health();
    g.throughput(events);
    g.bench_function("health_ejection_hedging_backoff", |b| b.iter(run_health));
    g.finish();
}

/// The streaming cluster path at provider shape: 512 × 50-core machines
/// over a downscaled hour trace fed minute by minute (never
/// materialized), paper hybrid nodes, Firecracker cold starts. Fan
/// pinned to one thread like `bench_cluster`, so the sample measures
/// per-event work. The workload size is fixed (no `SCALE_DIV`) so the
/// baseline row stays comparable across runs; events/sec uses the
/// deterministic fleet-wide kernel-event count. Peak RSS is printed as a
/// stdout note — the streaming contract keeps it O(in-flight + sketches)
/// regardless of trace length (pinned by the cluster differential
/// tests), so it is informational, not a diffed row.
fn bench_cluster_xl(c: &mut Bench) {
    let mut g = c.benchmark_group("cluster_xl");
    g.sample_size(3);
    let cfg = TraceConfig {
        minutes: 60,
        total_invocations: 373_260,
        ..TraceConfig::w2()
    }
    .rps_scaled(512)
    .downscaled(2_048);
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
    let events = run();
    g.throughput(events);
    g.bench_function("stream_512x50c_hour_div2048", |b| b.iter(run));
    g.finish();
    if let Some(mib) = faas_bench::peak_rss_mib() {
        println!(
            "  cluster_xl peak RSS so far: {mib} MiB (streaming run holds O(in-flight + sketches))"
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
        let plan = FaultPlan::generate(
            &FaultPlanConfig::new(0x0F2E_57A7, 1)
                .with_crashes(6.0, SimDuration::from_millis(500))
                .with_stragglers(4.0, SimDuration::from_secs(5), 2.0),
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
        // Checked once, outside the timed loop: the row is only worth
        // its place while it ejects and dispatches around the ejected.
        let mut fe = FrontEnd::new(&ejecting);
        fe.dispatch_chunk(&tasks, &mut KeepAliveDispatch);
        let (ejections, restricted) =
            (fe.health_stats().0.ejections, fe.fold_counters().restricted);
        assert!(
            ejections > 0 && restricted > 0,
            "dispatch_ejecting_{machines}m must eject ({ejections}) and restrict ({restricted})"
        );
        g.throughput(invocations as u64);
        g.bench_function(format!("dispatch_bare_{machines}m"), |b| {
            b.iter(|| run_fold(&bare, &tasks))
        });
        g.bench_function(format!("dispatch_overload_{machines}m"), |b| {
            b.iter(|| run_fold(&overload, &tasks))
        });
        g.bench_function(format!("dispatch_health_{machines}m"), |b| {
            b.iter(|| run_fold(&health, &tasks))
        });
        g.bench_function(format!("dispatch_ejecting_{machines}m"), |b| {
            b.iter(|| run_fold(&ejecting, &tasks))
        });
    }
    g.finish();
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
