//! Differential pins of the heap-backed dispatch fast paths against the
//! brute-force scans they replaced.
//!
//! PR 10 rewrote the front end's hot reads — `least_outstanding`,
//! `least_wait` and the keep-alive warm scan — onto indexed heaps and a
//! warm-site index, with the contract that the optimization is
//! **invisible in output**: every pick, every assignment, every stat must
//! be byte-identical to the linear scans. The scans survive as
//! [`DispatchCtx::least_outstanding_of`] / [`DispatchCtx::least_wait_of`],
//! so this suite can run both implementations over the same randomized
//! streams — fleets, task mixes, chunkings, crashes, stragglers, backoff
//! retries avoiding their crash site, autoscaling and the full health
//! feedback loop all drawn by the `check` harness — and demand
//! full-`Assignment` equality. The heaps hold only the candidate set
//! (active, not ejected), so dispatches while machines are ejected take
//! the heap path too; the fold's work counters show that they did.

use std::cell::Cell;

use faas_cluster::dispatch::{KeepAliveDispatch, LeastOutstanding};
use faas_cluster::{
    Assignment, AutoscaleConfig, BackoffConfig, ChaosConfig, ClusterConfig, ClusterTask,
    ColdStartConfig, Dispatch, DispatchCtx, EjectionConfig, FaultPlan, FaultPlanConfig,
    FoldCounters, FrontEnd, HealthConfig, HedgeConfig,
};
use faas_kernel::{MachineConfig, TaskSpec};
use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};

/// The pre-heap `LeastOutstanding`: a first-seen linear scan.
struct ScanLeastOutstanding;

impl Dispatch for ScanLeastOutstanding {
    fn name(&self) -> &str {
        "scan-least-outstanding"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        ctx.least_outstanding_of(0..ctx.machines())
            .expect("cluster has machines")
    }
}

/// `least_wait` through the heap fast path, as a policy.
struct HeapLeastWait;

impl Dispatch for HeapLeastWait {
    fn name(&self) -> &str {
        "heap-least-wait"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        ctx.least_wait()
    }
}

/// The same decision as [`HeapLeastWait`] via the first-seen linear scan.
struct ScanLeastWait;

impl Dispatch for ScanLeastWait {
    fn name(&self) -> &str {
        "scan-least-wait"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        ctx.least_wait_of(0..ctx.machines())
            .expect("cluster has machines")
    }
}

/// The pre-index `KeepAliveDispatch`, verbatim: full-fleet warm scan plus
/// the same spill budget.
struct ScanKeepAlive;

impl Dispatch for ScanKeepAlive {
    fn name(&self) -> &str {
        "scan-keep-alive"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        let best = ctx
            .least_wait_of(0..ctx.machines())
            .expect("cluster has machines");
        let budget = ctx.est_completion_after_boot(best);
        let warm =
            (0..ctx.machines()).filter(|&m| ctx.is_warm(m) && ctx.est_completion(m) <= budget);
        ctx.least_wait_of(warm).unwrap_or(best)
    }
}

/// Everything observable about one fold, plus its work counters and
/// ejection count.
type Folded = (Vec<Vec<TaskSpec>>, u64, String, FoldCounters, u64);

/// Runs one full front-end fold (chunked at `chunk`, then `finish`) and
/// returns everything observable about it.
fn fold(
    cfg: &ClusterConfig,
    tasks: &[ClusterTask],
    policy: &mut dyn Dispatch,
    chunk: usize,
) -> Folded {
    let mut fe = FrontEnd::new(cfg);
    let mut per_machine: Vec<Vec<TaskSpec>> = vec![Vec::new(); cfg.machines];
    let mut cold_starts = 0;
    let merge = |a: Assignment, per_machine: &mut Vec<Vec<TaskSpec>>, cold: &mut u64| {
        for (m, specs) in a.per_machine.into_iter().enumerate() {
            per_machine[m].extend(specs);
        }
        *cold += a.cold_starts;
    };
    for ch in tasks.chunks(chunk.max(1)) {
        let a = fe.dispatch_chunk(ch, policy);
        merge(a, &mut per_machine, &mut cold_starts);
    }
    let tail = fe.finish(policy);
    merge(tail, &mut per_machine, &mut cold_starts);
    let stats = format!("{:?} {:?}", fe.chaos_stats(), fe.health_stats());
    let ejections = fe.health_stats().0.ejections;
    (
        per_machine,
        cold_starts,
        stats,
        fe.fold_counters(),
        ejections,
    )
}

/// Asserts a heap-backed policy and its scan oracle produce bitwise the
/// same assignment and the same ledgers on the same stream. Returns the
/// heap run's work counters and ejection count.
fn assert_same_fold(
    cfg: &ClusterConfig,
    tasks: &[ClusterTask],
    heap: &mut dyn Dispatch,
    scan: &mut dyn Dispatch,
    chunk: usize,
    label: &str,
) -> (FoldCounters, u64) {
    let (pm_h, cold_h, stats_h, counters, ejections) = fold(cfg, tasks, heap, chunk);
    let (pm_s, cold_s, stats_s, ..) = fold(cfg, tasks, scan, chunk);
    assert_eq!(cold_h, cold_s, "{label}: cold-start counts diverge");
    assert_eq!(stats_h, stats_s, "{label}: chaos/health ledgers diverge");
    for (m, (h, s)) in pm_h.iter().zip(&pm_s).enumerate() {
        assert_eq!(h, s, "{label}: machine {m} spec feed diverges");
    }
    (counters, ejections)
}

/// A random sorted arrival stream: bursty interarrivals, a small hot
/// function set, and occasional I/O tails.
fn gen_tasks(g: &mut Gen, n: usize) -> Vec<ClusterTask> {
    let functions = g.u64_in(1, 9);
    let mut at_us = 0;
    (0..n)
        .map(|_| {
            // Half the arrivals pile onto the same instant, so the
            // heaps see deep same-tick churn and tie-breaks matter.
            if g.boolean() {
                at_us += g.u64_in(0, 5_000);
            }
            let work = SimDuration::from_micros(g.u64_in(100, 50_000));
            let mut spec = TaskSpec::function(SimTime::from_micros(at_us), work, 128);
            if g.boolean() {
                spec = spec.with_io_wait(SimDuration::from_micros(g.u64_in(0, 20_000)));
            }
            ClusterTask {
                spec,
                function: g.u64_in(0, functions),
            }
        })
        .collect()
}

fn gen_fleet(g: &mut Gen) -> ClusterConfig {
    let machines = g.usize_in(1, 13);
    let cores = g.usize_in(1, 5);
    let mut cfg = ClusterConfig::new(machines, MachineConfig::new(cores));
    if g.boolean() {
        cfg = cfg.with_cold_start(ColdStartConfig {
            boot_work: SimDuration::from_micros(g.u64_in(1_000, 200_000)),
            keep_alive: SimDuration::from_micros(g.u64_in(50_000, 5_000_000)),
        });
    }
    cfg
}

#[test]
fn heap_picks_match_scan_oracle_on_plain_fleets() {
    check::run("heap dispatch == scan oracle (plain)", 48, |g| {
        let cfg = gen_fleet(g);
        let n = g.usize_in(20, 181);
        let tasks = gen_tasks(g, n);
        let chunk = g.usize_in(1, tasks.len() + 1);
        assert_same_fold(
            &cfg,
            &tasks,
            &mut LeastOutstanding,
            &mut ScanLeastOutstanding,
            chunk,
            "least-outstanding",
        );
        assert_same_fold(
            &cfg,
            &tasks,
            &mut HeapLeastWait,
            &mut ScanLeastWait,
            chunk,
            "least-wait",
        );
        assert_same_fold(
            &cfg,
            &tasks,
            &mut KeepAliveDispatch,
            &mut ScanKeepAlive,
            chunk,
            "keep-alive",
        );
    });
}

#[test]
fn heap_picks_match_scan_oracle_under_chaos_autoscale_health() {
    // Summed over every case and heap policy: the run must eject, answer
    // restricted picks from the heaps, and build per-dispatch lists for
    // retries avoiding their crash site, or it proves nothing about them.
    let ejections = Cell::new(0);
    let restricted = Cell::new(0);
    let built = Cell::new(0);
    check::run("heap dispatch == scan oracle (full stack)", 32, |g| {
        let mut cfg = gen_fleet(g);
        // Always give the keep-alive pair something to be warm about.
        if cfg.cold_start.is_none() {
            cfg = cfg.with_cold_start(ColdStartConfig::firecracker());
        }
        let machines = cfg.machines;
        if g.boolean() {
            let plan = FaultPlanConfig::new(g.u64_in(0, u64::MAX - 1), 1)
                // Streams last well under a second of the plan's minute:
                // rates this high put crashes and stragglers inside them.
                .with_crashes(
                    g.f64_in(60.0, 6_000.0),
                    SimDuration::from_millis(g.u64_in(10, 2_000)),
                )
                .with_stragglers(
                    g.f64_in(60.0, 3_000.0),
                    SimDuration::from_millis(g.u64_in(50, 3_000)),
                    g.f64_in(1.5, 8.0),
                );
            let mut chaos =
                ChaosConfig::new(FaultPlan::generate(&plan, machines)).with_max_retries(3);
            if g.boolean() {
                chaos = chaos.with_backoff(
                    BackoffConfig::new(g.u64_in(0, u64::MAX - 1))
                        .with_delays(
                            SimDuration::from_millis(g.u64_in(1, 200)),
                            SimDuration::from_millis(g.u64_in(200, 5_000)),
                        )
                        .with_jitter(g.f64_in(0.0, 0.5)),
                );
            }
            cfg = cfg.with_chaos(chaos);
        }
        if machines > 1 && g.boolean() {
            cfg = cfg.with_autoscale(AutoscaleConfig {
                min_machines: g.usize_in(1, machines),
                high_watermark: g.f64_in(1.5, 6.0),
                low_watermark: g.f64_in(0.1, 1.0),
                check_interval: SimDuration::from_millis(g.u64_in(1, 200)),
                cooldown: SimDuration::from_millis(g.u64_in(1, 1_000)),
                boot_lag: SimDuration::from_millis(g.u64_in(0, 500)),
            });
        }
        if g.boolean() {
            cfg = cfg.with_health(
                HealthConfig::default()
                    .with_ejection(
                        EjectionConfig::default()
                            .with_threshold(g.f64_in(1.2, 3.0))
                            .with_probation(SimDuration::from_millis(g.u64_in(10, 2_000)))
                            .with_min_samples(g.u64_in(1, 16)),
                    )
                    .with_hedge(HedgeConfig::default().with_min_samples(g.u64_in(1, 64))),
            );
        }
        let n = g.usize_in(30, 161);
        let tasks = gen_tasks(g, n);
        let chunk = g.usize_in(1, tasks.len() + 1);
        let runs = [
            assert_same_fold(
                &cfg,
                &tasks,
                &mut LeastOutstanding,
                &mut ScanLeastOutstanding,
                chunk,
                "least-outstanding under stack",
            ),
            assert_same_fold(
                &cfg,
                &tasks,
                &mut HeapLeastWait,
                &mut ScanLeastWait,
                chunk,
                "least-wait under stack",
            ),
            assert_same_fold(
                &cfg,
                &tasks,
                &mut KeepAliveDispatch,
                &mut ScanKeepAlive,
                chunk,
                "keep-alive under stack",
            ),
        ];
        for (counters, ejected) in runs {
            ejections.set(ejections.get() + ejected);
            restricted.set(restricted.get() + counters.restricted);
            built.set(built.get() + counters.built);
        }
    });
    assert!(ejections.get() > 0, "no case ejected a machine");
    assert!(
        restricted.get() > 0,
        "no restricted dispatch took the heap path"
    );
    assert!(
        built.get() > 0,
        "no pick built its candidate list on the spot"
    );
}
