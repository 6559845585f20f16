//! Differential pins of the node-health feedback loop.
//!
//! * **Passive tracker ≡ default config, bitwise.**
//!   [`HealthConfig::default`] arms the tracker, which folds completion
//!   reports into EWMAs but never ejects, probes or hedges — both run
//!   paths must stay byte-identical to the default config, whose
//!   tracker tracks nothing (records, event counts, cold starts, cost
//!   bits), on the cluster01–03 shapes at fan widths 1, 2 and 4, while
//!   the summaries still expose the per-machine EWMA columns.
//! * **Ejection + hedging improve the tail.** Under a straggler-heavy
//!   plan the full feedback loop must cut the p99 sojourn versus the
//!   same chaos with no health layer — the claim the paper's robustness
//!   story rests on, pinned on a deterministic seed.
//! * **Probe lifecycle.** Crash-ejected machines earn a half-open probe
//!   after probation and are re-admitted by a surviving probe.
//! * **Hedge losers are cancelled and billed.** Speculative copies die in
//!   the kernel (`kernel_cancelled`), their waste priced through the
//!   hedge tariff.
//! * **Backoff retries** wait out a jittered exponential delay, avoid
//!   the crash site and still conserve every invocation.
//! * **Chunk/thread invariance of the full stack** — ejection, hedging,
//!   probes and backoff all live in the serial front-end fold, so ledgers
//!   and dispatch splits are identical whether the stream arrives whole
//!   or chunked at any window, at any fan width (property-checked over
//!   random chunk windows).
//! * **Hedge copies land like primaries.** Every spec fed to a machine,
//!   primary or copy, respects that machine's arrival floor (its feed
//!   stays in arrival order) and is scaled and counted by a covering
//!   straggler window.
//! * **The attempt ledger closes.** Every arrival and every hedge copy
//!   ends exactly once: completed, shed, abandoned, cancelled by its
//!   kernel, or doomed by a crash before reaching a kernel — on both run
//!   paths, under the whole control-plane stack.

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{
    KeepAliveDispatch, LeastOutstanding, PowerOfTwoChoices, RandomDispatch, RoundRobinDispatch,
};
use faas_cluster::{
    chunk_workload, workload_from_trace, BackoffConfig, ChaosConfig, Cluster, ClusterConfig,
    ClusterTask, ColdStartConfig, Dispatch, EjectionConfig, Fault, FaultPlan, FaultPlanConfig,
    FoldCounters, FrontEnd, HealthConfig, HedgeConfig, OverloadConfig, StreamOptions,
};
use faas_kernel::{InterferenceConfig, MachineConfig, Scheduler};
use faas_policies::Fifo;
use faas_simcore::{check, SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

/// Same test-scale cluster01–03 fleet double as the chaos, streaming and
/// overload differential suites.
fn scenario_fleet(machines: usize) -> ClusterConfig {
    let machine = MachineConfig::new(4)
        .with_interference(InterferenceConfig::default())
        .with_seed(0x005E_EDC1);
    ClusterConfig::new(machines, machine).with_cold_start(ColdStartConfig::firecracker())
}

fn scenario_workload(machines: usize) -> Vec<ClusterTask> {
    let cfg = TraceConfig::w2().rps_scaled(machines).downscaled(64);
    workload_from_trace(&AzureTrace::generate(&cfg), 1)
}

/// A plan dominated by long, severe straggler windows: the shape where
/// latency feedback has something to react to.
fn straggler_plan(machines: usize) -> FaultPlan {
    let cfg =
        FaultPlanConfig::new(0x57A6_0001, 2).with_stragglers(2.0, SimDuration::from_secs(30), 8.0);
    FaultPlan::generate(&cfg, machines)
}

/// Crashes + stragglers, for the full-stack invariance and probe tests.
fn violent_plan(machines: usize) -> FaultPlan {
    let cfg = FaultPlanConfig::new(0xC4A0_55ED, 2)
        .with_crashes(3.0, SimDuration::from_secs(15))
        .with_stragglers(1.5, SimDuration::from_secs(20), 3.0);
    FaultPlan::generate(&cfg, machines)
}

/// An aggressive feedback loop for the scenarios that must visibly act.
fn active_health() -> HealthConfig {
    HealthConfig::default()
        .with_ejection(
            EjectionConfig::default()
                .with_threshold(2.0)
                .with_probation(SimDuration::from_secs(5))
                .with_min_samples(8),
        )
        .with_hedge(
            HedgeConfig::default()
                .with_quantile(0.95)
                .with_min_samples(64)
                .with_price(PriceModel::duration_only()),
        )
}

fn stream_opts() -> StreamOptions {
    StreamOptions {
        epsilon: 1e-3,
        price: Some(PriceModel::duration_only()),
    }
}

/// p99 of per-record sojourn (arrival → completion) in microseconds.
fn p99_sojourn_us(records: &[faas_metrics::TaskRecord]) -> u64 {
    let mut sojourns: Vec<u64> = records
        .iter()
        .map(|r| (r.completion - r.arrival).as_micros())
        .collect();
    assert!(!sojourns.is_empty(), "no records to take a quantile of");
    sojourns.sort_unstable();
    sojourns[((sojourns.len() - 1) as f64 * 0.99).floor() as usize]
}

#[test]
fn passive_health_default_is_bitwise_identical_to_bare_cluster() {
    run_passive_shape("cluster01", 4, || KeepAliveDispatch, |_| Fifo::new());
    run_passive_shape(
        "cluster02",
        16,
        || LeastOutstanding,
        |_| HybridScheduler::new(HybridConfig::split(2, 2)),
    );
    run_passive_shape(
        "cluster03",
        64,
        || RandomDispatch::new(0xC105),
        |_| HybridScheduler::new(HybridConfig::split(2, 2)),
    );
}

fn run_passive_shape<D, P, F>(
    id: &str,
    machines: usize,
    make_dispatch: impl Fn() -> D,
    make_policy: F,
) where
    D: Dispatch,
    P: Scheduler + Send,
    F: Fn(usize) -> P + Sync + Copy,
{
    let tasks = scenario_workload(machines);
    let chunks = chunk_workload(&tasks, SimDuration::from_secs(10));
    for threads in [1, 2, 4] {
        let what = format!("{id} @ fan width {threads}");

        // Materializing path.
        let bare = Cluster::new(scenario_fleet(machines), make_dispatch(), make_policy)
            .run(&tasks, threads)
            .expect("bare run completes");
        let passive = Cluster::new(
            scenario_fleet(machines).with_health(HealthConfig::default()),
            make_dispatch(),
            make_policy,
        )
        .run(&tasks, threads)
        .expect("passive-health run completes");
        assert!(
            passive.health.is_zero(),
            "{what}: passive tracker acted: {:?}",
            passive.health
        );
        assert_eq!(bare.records, passive.records, "{what}: records diverged");
        assert_eq!(bare.cold_starts, passive.cold_starts, "{what}: cold starts");
        for (i, (b, p)) in bare.machines.iter().zip(&passive.machines).enumerate() {
            assert_eq!(
                b.events_processed, p.events_processed,
                "{what}: machine {i} event count (health plumbing leaks?)"
            );
            assert_eq!(b.core_stats, p.core_stats, "{what}: machine {i} cores");
            assert_eq!(b.finished_at, p.finished_at, "{what}: machine {i} finish");
        }
        // The bare run reports no columns; the passive run tracks every
        // machine's EWMA without acting on it.
        assert!(
            bare.machine_health.is_empty(),
            "{what}: bare run has columns"
        );
        assert_eq!(passive.machine_health.len(), machines, "{what}: columns");
        let sampled: u64 = passive.machine_health.iter().map(|m| m.samples).sum();
        assert_eq!(
            sampled,
            tasks.len() as u64,
            "{what}: every completion must report exactly once"
        );
        assert!(
            passive.machine_health.iter().all(|m| m.ejections == 0),
            "{what}: passive tracker ejected"
        );
        let summary = passive.summary();
        assert_eq!(summary.machine_health.len(), machines, "{what}: summary");

        // Streaming path.
        let bare_s = Cluster::new(scenario_fleet(machines), make_dispatch(), make_policy)
            .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
            .expect("bare streaming run completes");
        let passive_s = Cluster::new(
            scenario_fleet(machines).with_health(HealthConfig::default()),
            make_dispatch(),
            make_policy,
        )
        .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
        .expect("passive-health streaming run completes");
        assert!(passive_s.health.is_zero(), "{what}: stream tracker acted");
        assert_eq!(
            bare_s.cold_starts, passive_s.cold_starts,
            "{what}: stream cold"
        );
        assert_eq!(
            bare_s.total_cost_usd().to_bits(),
            passive_s.total_cost_usd().to_bits(),
            "{what}: stream cost bits"
        );
        for (i, (b, p)) in bare_s.machines.iter().zip(&passive_s.machines).enumerate() {
            assert_eq!(b.stats, p.stats, "{what}: stream machine {i} stats");
            assert_eq!(
                b.events_processed, p.events_processed,
                "{what}: stream machine {i} event count"
            );
            assert_eq!(
                b.finished_at, p.finished_at,
                "{what}: stream machine {i} finish"
            );
        }
        // Same telemetry through the streaming fold, and the two paths
        // agree column for column.
        assert_eq!(
            passive.machine_health, passive_s.machine_health,
            "{what}: run paths disagree on health columns"
        );
    }
}

#[test]
fn ejection_and_hedging_improve_tail_latency_under_stragglers() {
    // Half-rate load: hedging duplicates work, so it only pays on a
    // fleet with headroom — at saturation the speculative copies would
    // feed the very queues they race (the cost table in EXPERIMENTS.md
    // quantifies that trade).
    let machines = 8;
    let cfg = TraceConfig::w2().rps_scaled(machines / 2).downscaled(64);
    let tasks = workload_from_trace(&AzureTrace::generate(&cfg), 1);
    let plan = straggler_plan(machines);
    let fleet = || scenario_fleet(machines).with_chaos(ChaosConfig::new(plan.clone()));

    let bare = Cluster::new(fleet(), LeastOutstanding, |_| Fifo::new())
        .run(&tasks, 2)
        .expect("bare chaos run completes");
    assert!(bare.chaos.straggled_tasks > 0, "plan straggled nothing");

    let eject_only = Cluster::new(
        fleet().with_health(
            HealthConfig::default().with_ejection(
                EjectionConfig::default()
                    .with_threshold(2.0)
                    .with_probation(SimDuration::from_secs(5))
                    .with_min_samples(8),
            ),
        ),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("ejection run completes");
    assert!(eject_only.health.ejections > 0, "nothing was ejected");

    let full = Cluster::new(
        fleet().with_health(active_health()),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("ejection+hedging run completes");
    assert!(full.health.ejections > 0, "full loop ejected nothing");
    assert!(full.health.hedges > 0, "full loop hedged nothing");

    let p99_bare = p99_sojourn_us(&bare.merged_records());
    let p99_eject = p99_sojourn_us(&eject_only.merged_records());
    let p99_full = p99_sojourn_us(&full.merged_records());
    assert!(
        p99_eject < p99_bare,
        "ejection did not improve the p99 sojourn ({p99_eject} vs {p99_bare} µs)"
    );
    assert!(
        p99_full < p99_bare,
        "ejection+hedging did not improve the p99 sojourn ({p99_full} vs {p99_bare} µs)"
    );
}

#[test]
fn probe_cycle_ejects_probes_and_readmits_after_crashes() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    let report = Cluster::new(
        scenario_fleet(machines)
            .with_chaos(ChaosConfig::new(violent_plan(machines)))
            .with_health(
                HealthConfig::default().with_ejection(
                    EjectionConfig::default()
                        .with_probation(SimDuration::from_secs(2))
                        .with_min_samples(8),
                ),
            ),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("probe-cycle run completes");
    assert!(report.chaos.crashes > 0, "shape lost its crashes");
    assert!(report.health.ejections > 0, "crashes ejected nothing");
    assert!(report.health.probes > 0, "no probation ever expired");
    assert!(
        report.health.readmissions > 0,
        "no probe ever re-admitted: {:?}",
        report.health
    );
    assert!(
        report.health.readmissions + report.health.probe_failures <= report.health.probes,
        "probe ledger double-counts: {:?}",
        report.health
    );
    // The per-machine columns agree with the fleet ledger.
    let col_ejections: u64 = report.machine_health.iter().map(|m| m.ejections).sum();
    assert_eq!(col_ejections, report.health.ejections, "column sum");
    assert!(
        report
            .machine_health
            .iter()
            .any(|m| m.straggled > SimDuration::ZERO),
        "ejected spans must show up as straggled time"
    );
}

#[test]
fn hedge_losers_are_cancelled_in_the_kernel_and_billed() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    let report = Cluster::new(
        scenario_fleet(machines)
            .with_chaos(ChaosConfig::new(straggler_plan(machines)))
            .with_health(active_health()),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("hedging run completes");
    let h = report.health;
    assert!(h.hedges > 0, "nothing hedged");
    assert_eq!(h.hedges, h.hedges_won + h.hedges_lost, "hedges settle");
    assert!(h.hedge_cost_usd > 0.0, "hedge waste was not billed");
    // Every hedge books exactly one loser; losers die in the kernel via
    // their deadline (some may beat the estimate and complete anyway, so
    // cancellations are bounded by — not equal to — the hedge count).
    assert!(
        report.overload.kernel_cancelled > 0,
        "no hedge loser was cancelled"
    );
    assert!(
        report.overload.kernel_cancelled <= h.hedges,
        "more cancellations ({}) than hedges ({})",
        report.overload.kernel_cancelled,
        h.hedges
    );
    // Hedging duplicates work: completions can exceed arrivals (a loser
    // that outruns its deadline still completes), never undershoot.
    assert!(
        report.merged_records().len() >= tasks.len(),
        "hedging lost invocations"
    );
}

#[test]
fn backoff_delays_retries_and_conserves_invocations() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    let crash_plan = FaultPlan::generate(
        &FaultPlanConfig::new(0xC4A0_55ED, 2).with_crashes(3.0, SimDuration::from_secs(15)),
        machines,
    );
    let run = |backoff: Option<BackoffConfig>| {
        let mut chaos = ChaosConfig::new(crash_plan.clone());
        if let Some(b) = backoff {
            chaos = chaos.with_backoff(b);
        }
        Cluster::new(
            scenario_fleet(machines).with_chaos(chaos),
            LeastOutstanding,
            |_| Fifo::new(),
        )
        .run(&tasks, 2)
        .expect("backoff run completes")
    };

    let instant = run(None);
    assert!(instant.chaos.retries > 0, "crashes doomed nothing");
    assert_eq!(instant.health.backoff_retries, 0, "no backoff configured");

    let delayed = run(Some(
        BackoffConfig::new(0xB0FF_0001)
            .with_delays(SimDuration::from_millis(250), SimDuration::from_secs(30))
            .with_jitter(0.25),
    ));
    assert!(delayed.chaos.retries > 0, "backoff run doomed nothing");
    assert_eq!(
        delayed.health.backoff_retries, delayed.chaos.retries,
        "every retry must take the backoff path"
    );
    assert!(
        delayed.health.backoff_delay_total
            >= SimDuration::from_millis(250).mul_f64(0.75 * delayed.chaos.retries as f64),
        "total delay below the jitter floor: {:?}",
        delayed.health.backoff_delay_total
    );
    // Unlimited retries: conservation holds with or without the delay.
    assert_eq!(instant.merged_records().len(), tasks.len(), "instant");
    assert_eq!(delayed.merged_records().len(), tasks.len(), "delayed");
    assert_eq!(delayed.chaos.abandoned, 0, "unlimited retries gave up");
}

#[test]
fn full_health_stack_is_chunk_and_thread_invariant() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    let fleet = || {
        scenario_fleet(machines)
            .with_chaos(
                ChaosConfig::new(violent_plan(machines))
                    .with_max_retries(4)
                    .with_price(PriceModel::duration_only())
                    .with_backoff(
                        BackoffConfig::new(0xB0FF_0002)
                            .with_delays(SimDuration::from_millis(100), SimDuration::from_secs(10))
                            .with_jitter(0.25),
                    ),
            )
            .with_health(active_health())
    };

    let exact = Cluster::new(fleet(), PowerOfTwoChoices::new(0xD15C), |_| Fifo::new())
        .run(&tasks, 2)
        .expect("materializing run completes");
    assert!(
        exact.chaos.crashes > 0,
        "stack without crashes proves nothing"
    );
    assert!(
        exact.health.ejections > 0 && exact.health.hedges > 0,
        "health layer never engaged: {:?}",
        exact.health
    );
    assert!(exact.health.backoff_retries > 0, "backoff never engaged");

    // Materializing: fan-width invariance, bitwise.
    for threads in [1, 4] {
        let again = Cluster::new(fleet(), PowerOfTwoChoices::new(0xD15C), |_| Fifo::new())
            .run(&tasks, threads)
            .expect("materializing run completes");
        assert_eq!(exact.records, again.records, "fan {threads}: records");
        assert_eq!(exact.chaos, again.chaos, "fan {threads}: chaos ledger");
        assert_eq!(exact.health, again.health, "fan {threads}: health ledger");
        assert_eq!(
            exact.machine_health, again.machine_health,
            "fan {threads}: health columns"
        );
    }

    // Streaming: random chunk windows × fan widths against the
    // materializing reference.
    check::run("health-stack-chunk-invariance", 12, |g| {
        let window = SimDuration::from_millis(g.u64_in(500, 45_000));
        let threads = g.usize_in(1, 4);
        let what = format!("window {window:?} fan {threads}");
        let stream = Cluster::new(fleet(), PowerOfTwoChoices::new(0xD15C), |_| Fifo::new())
            .run_streaming(chunk_workload(&tasks, window), &stream_opts(), threads)
            .expect("streaming run completes");
        assert_eq!(exact.chaos, stream.chaos, "{what}: chaos ledger");
        assert_eq!(exact.health, stream.health, "{what}: health ledger");
        assert_eq!(
            exact.machine_health, stream.machine_health,
            "{what}: health columns"
        );
        assert_eq!(exact.cold_starts, stream.cold_starts, "{what}: cold");
        // The materializing split counts every spec fed (cancelled hedge
        // losers included); the streaming one counts completions — the
        // machine's own cancellation counter closes the gap.
        let stream_fed: Vec<usize> = stream
            .machines
            .iter()
            .map(|m| (m.tasks + m.cancelled) as usize)
            .collect();
        assert_eq!(exact.dispatched(), stream_fed, "{what}: dispatch split");
        assert_eq!(exact.finished_at(), stream.finished_at(), "{what}: finish");
    });
}

#[test]
fn hedge_copies_land_like_primaries() {
    // Straggler windows cover most machine-time and crashes raise arrival
    // floors, so hedge copies land under both.
    let machines = 8;
    let tasks = scenario_workload(machines);
    let plan = FaultPlan::generate(
        &FaultPlanConfig::new(0x1A4D_0001, 2)
            .with_crashes(4.0, SimDuration::from_secs(4))
            .with_stragglers(24.0, SimDuration::from_secs(30), 4.0),
        machines,
    );
    let cfg = scenario_fleet(machines)
        .with_chaos(ChaosConfig::new(plan.clone()))
        .with_health(
            HealthConfig::default().with_hedge(
                HedgeConfig::default()
                    .with_min_samples(32)
                    .with_max_fraction(0.2),
            ),
        );
    let mut front = FrontEnd::new(&cfg);
    let mut dispatch = LeastOutstanding;
    let mut fed = front.dispatch_chunk(&tasks, &mut dispatch).per_machine;
    for (m, tail) in front
        .finish(&mut dispatch)
        .per_machine
        .into_iter()
        .enumerate()
    {
        fed[m].extend(tail);
    }
    let (health, _) = front.health_stats();
    assert!(health.hedges > 0, "nothing hedged");
    let mut straggled = 0;
    for (m, specs) in fed.iter().enumerate() {
        assert!(
            specs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "machine {m}: a spec ignored its arrival floor"
        );
        let covered = |at: SimTime| {
            plan.events().iter().any(|e| {
                e.machine == m
                    && matches!(e.fault, Fault::Straggle { duration, .. }
                        if e.at <= at && at < e.at + duration)
            })
        };
        straggled += specs.iter().filter(|s| covered(s.arrival)).count() as u64;
    }
    assert!(straggled > 0, "no spec landed in a straggler window");
    assert_eq!(
        front.chaos_stats().straggled_tasks,
        straggled,
        "a spec landing in a straggler window was not scaled and counted"
    );
}

/// Every stage of the front-end fold armed at once, as in the benchmark's
/// control-plane workload but shrunk to `machines` nodes: cold starts, a
/// concurrency cap, a 5 s deadline with kernel cancel, crashes with 4 s
/// downtime, stragglers, a retry cap of 1 with backoff, ejection, and
/// hedging.
fn control_plane_fleet(machines: usize) -> ClusterConfig {
    let price = PriceModel::duration_only();
    let overload = OverloadConfig::default()
        .with_concurrency_limit(320)
        .with_deadline(SimDuration::from_secs(5))
        .with_kernel_cancel()
        .with_price(price);
    let faults = FaultPlanConfig::new(0x00BA_C0FF, 2)
        .with_crashes(4.0, SimDuration::from_secs(4))
        .with_stragglers(2.0, SimDuration::from_secs(30), 8.0);
    let chaos = ChaosConfig::new(FaultPlan::generate(&faults, machines))
        .with_max_retries(1)
        .with_slo(SimDuration::from_secs(2))
        .with_price(price)
        .with_backoff(
            BackoffConfig::new(0x0BAC_0FF5)
                .with_delays(SimDuration::from_millis(250), SimDuration::from_secs(30))
                .with_jitter(0.25),
        );
    let health = HealthConfig::default()
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
        );
    let machine = MachineConfig::new(50).with_interference(InterferenceConfig::default());
    ClusterConfig::new(machines, machine)
        .with_cold_start(ColdStartConfig::firecracker())
        .with_overload(overload)
        .with_chaos(chaos)
        .with_health(health)
}

#[test]
fn attempt_ledger_closes_with_doomed_hedge_copies() {
    let machines = 8;
    let tasks = workload_from_trace(&AzureTrace::generate(&TraceConfig::w2().rps_scaled(2)), 1);
    let chunks = chunk_workload(&tasks, SimDuration::from_secs(10));
    let arrived = tasks.len() as u64;
    for threads in [1, 4] {
        let run = Cluster::new(control_plane_fleet(machines), LeastOutstanding, |_| {
            Fifo::new()
        })
        .run(&tasks, threads)
        .expect("control-plane run completes");
        let stream = Cluster::new(control_plane_fleet(machines), LeastOutstanding, |_| {
            Fifo::new()
        })
        .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
        .expect("control-plane streaming run completes");
        let completed_run = run.merged_records().len() as u64;
        let completed_stream: u64 = stream.machines.iter().map(|m| m.tasks).sum();
        for (path, completed, overload, chaos, h) in [
            ("run", completed_run, run.overload, run.chaos, run.health),
            (
                "run_streaming",
                completed_stream,
                stream.overload,
                stream.chaos,
                stream.health,
            ),
        ] {
            let what = format!("{path} @ fan width {threads}");
            assert!(
                h.doomed_copies > 0,
                "{what}: no hedge copy was doomed: {h:?}"
            );
            assert!(h.doomed_copies <= h.hedges_lost, "{what}: {h:?}");
            assert_eq!(
                arrived + h.hedges,
                completed
                    + overload.total_shed()
                    + chaos.abandoned
                    + overload.kernel_cancelled
                    + h.doomed_copies,
                "{what}: attempt ledger does not close \
                 (completed {completed}, {overload:?}, {chaos:?}, {h:?})"
            );
        }
    }
}

/// FNV-1a 64-bit over formatted text, fed piecewise so a whole fold's
/// spec feeds hash without building one string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Runs the serial front-end fold alone (no kernels) over `tasks` and
/// digests everything it decides: every machine's spec feed in order,
/// the cold-start count and the overload, chaos and health ledgers.
/// Returns the digest and the health ledger.
fn fold_digest(
    cfg: &ClusterConfig,
    tasks: &[ClusterTask],
    policy: &mut dyn Dispatch,
) -> (u64, faas_metrics::HealthStats) {
    use std::fmt::Write;
    let mut front = FrontEnd::new(cfg);
    let body = front.dispatch_chunk(tasks, policy);
    let tail = front.finish(policy);
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for a in [&body, &tail] {
        for (m, specs) in a.per_machine.iter().enumerate() {
            write!(h, "m{m}:").expect("hashing cannot fail");
            for s in specs {
                write!(h, "{s:?};").expect("hashing cannot fail");
            }
        }
        write!(h, "cold {};", a.cold_starts).expect("hashing cannot fail");
    }
    let (health, columns) = front.health_stats();
    write!(
        h,
        "{:?} {:?} {health:?} {columns:?}",
        front.overload_stats(),
        front.chaos_stats()
    )
    .expect("hashing cannot fail");
    (h.0, health)
}

/// Byte-identity pins of the full control-plane fold (crashes,
/// stragglers, backoff retries avoiding their crash site, ejection,
/// hedging, cold starts, the admission cap and the deadline) under every
/// stock policy. Random, round-robin and p2c index the candidate list by
/// position and have no scan twin in `frontend_scan_oracle.rs`, so only
/// these digests notice a candidate list that differs from the one the
/// fold builds by filtering the active prefix per dispatch. Captured
/// from that per-dispatch-build tree.
#[test]
fn control_plane_fold_digests_pinned() {
    let machines = 16;
    let cfg = control_plane_fleet(machines);
    let tasks = workload_from_trace(&AzureTrace::generate(&TraceConfig::w2().rps_scaled(4)), 1);
    let cases: [(&str, Box<dyn Dispatch>, u64); 5] = [
        (
            "random",
            Box::new(RandomDispatch::new(0xC105)),
            0xd9e8_90da_73cb_710d,
        ),
        (
            "round-robin",
            Box::new(RoundRobinDispatch::new()),
            0xb4af_44b4_23db_de9e,
        ),
        (
            "p2c",
            Box::new(PowerOfTwoChoices::new(0xD15C)),
            0x8b96_0d59_f687_1cb5,
        ),
        (
            "least-outstanding",
            Box::new(LeastOutstanding),
            0x7db2_1ecf_7cb0_b56d,
        ),
        (
            "keep-alive",
            Box::new(KeepAliveDispatch),
            0xefaa_1b2a_06ba_36da,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, mut policy, want) in cases {
        let (digest, health) = fold_digest(&cfg, &tasks, &mut policy);
        assert!(
            health.ejections > 0 && health.backoff_retries > 0,
            "{name}: the fold never ejected or backed off: {health:?}"
        );
        if digest != want {
            mismatches.push(format!("{name}: {digest:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "control-plane fold output changed: {mismatches:?}"
    );
}

/// The fold's work counters on the same shape under `LeastOutstanding`
/// (the benchmark's `control-plane` policy), pinned exactly: a change
/// that brings back per-dispatch candidate builds or epoch scans moves
/// them, however noisy the host's timings.
#[test]
fn control_plane_fold_counters_pinned() {
    let cfg = control_plane_fleet(16);
    let tasks = workload_from_trace(&AzureTrace::generate(&TraceConfig::w2().rps_scaled(4)), 1);
    let mut front = FrontEnd::new(&cfg);
    front.dispatch_chunk(&tasks, &mut LeastOutstanding);
    front.finish(&mut LeastOutstanding);
    let c = front.fold_counters();
    assert_eq!(
        c,
        FoldCounters {
            restricted: 48_850,
            built: 26,
            rebuilds: 290,
            epoch_scans: 13,
            // The health counters are pinned beside the fold's digest
            // (`frontend::tests`).
            ..c
        },
        "{} arrivals, {:?}",
        tasks.len(),
        front.health_stats().0
    );
    assert!(
        c.rebuilds * 10 < c.restricted,
        "the candidate list is rebuilt per dispatch again: {c:?}"
    );
}
