//! Differential pins of the chaos + elastic layer.
//!
//! * **Armed empty plan ≡ default config, bitwise.** A [`ChaosConfig`]
//!   carrying an empty [`FaultPlan`] with a retry cap, SLO tracking and
//!   a churn tariff armed must leave both run paths byte-identical to
//!   the default config's empty plan — same records, kernel event
//!   counts, cold starts and cost bits — on the cluster01–03 scenario
//!   shapes at fan widths 1, 2 and 4.
//! * **Crash-replay conservation.** Every dispatched invocation is
//!   completed exactly once, shed by middleware, or abandoned after its
//!   retry budget — no loss, no double-billing, at any fan width.
//! * **Straggler monotonicity.** Slowing machines down never speeds any
//!   individual invocation up: per-record completions dominate the
//!   fault-free run's.
//! * **Autoscaler hysteresis bounds** (property): the active fleet stays
//!   in `[min, max]` and decisions are spaced by both the check interval
//!   and the cooldown.
//! * **Chunk/thread invariance of the full stack.** Crashes, stragglers,
//!   storms, autoscaler and middleware together produce identical ledgers
//!   and dispatch splits whether the stream arrives whole or chunked at
//!   any window, at any fan width — all chaos state lives in the serial
//!   front-end fold.
//! * **Fault-plan generator properties**: shard-count invariance and
//!   prefix stability under trace truncation, plus retry-queue ordering.
//! * **Middleware × chaos composition**: breakers trip on crash-induced
//!   timeout spikes; admission caps hold the kernel backlog bounded
//!   through a re-dispatch flood.

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{
    KeepAliveDispatch, LeastOutstanding, RandomDispatch, RoundRobinDispatch,
};
use faas_cluster::{
    chunk_workload, workload_from_trace, AutoscaleConfig, Autoscaler, ChaosConfig, Cluster,
    ClusterConfig, ClusterTask, ColdStartConfig, Dispatch, FaultPlan, FaultPlanConfig,
    OverloadConfig, RetryEntry, ScaleDecision, StreamOptions,
};
use faas_kernel::{InterferenceConfig, MachineConfig, Scheduler, TaskSpec};
use faas_policies::Fifo;
use faas_simcore::{check, EventQueue, SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

/// Same test-scale cluster01–03 fleet double as the streaming and
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

/// Chaos armed to the teeth but scheduled to do nothing: every counter,
/// clock and tariff is live, the plan is empty.
fn empty_chaos(machines: usize) -> ChaosConfig {
    ChaosConfig::new(FaultPlan::empty(machines))
        .with_max_retries(3)
        .with_slo(SimDuration::from_secs(5))
        .with_price(PriceModel::duration_only())
}

/// A plan that actually hurts on the 2-minute W2 shape: a couple of
/// crashes per minute with double-digit-second downtime, plus straggler
/// and storm windows.
fn violent_plan(machines: usize) -> FaultPlan {
    let cfg = FaultPlanConfig::new(0xC4A0_55ED, 2)
        .with_crashes(3.0, SimDuration::from_secs(15))
        .with_stragglers(1.5, SimDuration::from_secs(20), 3.0)
        .with_storms(1.0, SimDuration::from_secs(10), 8.0);
    FaultPlan::generate(&cfg, machines)
}

fn stream_opts() -> StreamOptions {
    StreamOptions {
        epsilon: 1e-3,
        price: Some(PriceModel::duration_only()),
    }
}

#[test]
fn empty_fault_plan_is_bitwise_identical_to_bare_cluster() {
    run_noop_shape("cluster01", 4, || KeepAliveDispatch, |_| Fifo::new());
    run_noop_shape(
        "cluster02",
        16,
        || LeastOutstanding,
        |_| HybridScheduler::new(HybridConfig::split(2, 2)),
    );
    run_noop_shape(
        "cluster03",
        64,
        || RandomDispatch::new(0xC105),
        |_| HybridScheduler::new(HybridConfig::split(2, 2)),
    );
}

fn run_noop_shape<D, P, F>(id: &str, machines: usize, make_dispatch: impl Fn() -> D, make_policy: F)
where
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
        let noop = Cluster::new(
            scenario_fleet(machines).with_chaos(empty_chaos(machines)),
            make_dispatch(),
            make_policy,
        )
        .run(&tasks, threads)
        .expect("empty-plan run completes");
        assert!(noop.chaos.is_zero(), "{what}: empty plan did something");
        assert_eq!(
            noop.chaos.churn_cost_usd.to_bits(),
            0f64.to_bits(),
            "{what}: empty plan billed churn"
        );
        assert_eq!(bare.records, noop.records, "{what}: records diverged");
        assert_eq!(bare.cold_starts, noop.cold_starts, "{what}: cold starts");
        assert_eq!(
            bare.max_in_flight(),
            noop.max_in_flight(),
            "{what}: backlog"
        );
        for (i, (b, n)) in bare.machines.iter().zip(&noop.machines).enumerate() {
            assert_eq!(
                b.events_processed, n.events_processed,
                "{what}: machine {i} event count (storm plumbing leaks draws?)"
            );
            assert_eq!(b.core_stats, n.core_stats, "{what}: machine {i} cores");
            assert_eq!(b.finished_at, n.finished_at, "{what}: machine {i} finish");
        }

        // Streaming path: accumulators (sketch tuples included), cost
        // bits and kernel event counts must all match.
        let bare_s = Cluster::new(scenario_fleet(machines), make_dispatch(), make_policy)
            .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
            .expect("bare streaming run completes");
        let noop_s = Cluster::new(
            scenario_fleet(machines).with_chaos(empty_chaos(machines)),
            make_dispatch(),
            make_policy,
        )
        .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
        .expect("empty-plan streaming run completes");
        assert!(noop_s.chaos.is_zero(), "{what}: streaming empty plan acted");
        assert_eq!(
            bare_s.cold_starts, noop_s.cold_starts,
            "{what}: stream cold"
        );
        assert_eq!(
            bare_s.total_cost_usd().to_bits(),
            noop_s.total_cost_usd().to_bits(),
            "{what}: stream cost bits"
        );
        for (i, (b, n)) in bare_s.machines.iter().zip(&noop_s.machines).enumerate() {
            assert_eq!(b.stats, n.stats, "{what}: stream machine {i} stats");
            assert_eq!(
                b.events_processed, n.events_processed,
                "{what}: stream machine {i} event count"
            );
            assert_eq!(
                b.core_stats, n.core_stats,
                "{what}: stream machine {i} cores"
            );
            assert_eq!(
                b.finished_at, n.finished_at,
                "{what}: stream machine {i} finish"
            );
            assert_eq!(
                b.max_in_flight, n.max_in_flight,
                "{what}: stream machine {i} backlog"
            );
        }
    }
}

#[test]
fn crash_replay_conserves_every_invocation() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    let plan = violent_plan(machines);
    let crash_count = plan
        .events()
        .iter()
        .filter(|e| matches!(e.fault, faas_cluster::Fault::Crash { .. }))
        .count() as u64;
    assert!(crash_count > 0, "test shape lost its crashes");

    for threads in [1, 4] {
        // Unlimited retries: every doomed attempt replays until it lands,
        // so completions must equal arrivals exactly — nothing lost,
        // nothing duplicated.
        let report = Cluster::new(
            scenario_fleet(machines).with_chaos(
                ChaosConfig::new(plan.clone())
                    .with_slo(SimDuration::from_secs(2))
                    .with_price(PriceModel::duration_only()),
            ),
            LeastOutstanding,
            |_| Fifo::new(),
        )
        .run(&tasks, threads)
        .expect("chaos run completes");
        assert_eq!(report.chaos.crashes, crash_count, "all crashes applied");
        assert!(report.chaos.retries > 0, "crashes doomed nothing");
        assert_eq!(report.chaos.abandoned, 0, "unlimited retries never give up");
        assert_eq!(
            report.merged_records().len(),
            tasks.len(),
            "fan {threads}: conservation (completed == arrived)"
        );
        assert!(report.chaos.churn_cost_usd > 0.0, "doomed attempts bill");
        assert!(
            report.chaos.recoveries + report.chaos.unrecovered > 0,
            "every crash epoch must settle one way: {:?}",
            report.chaos
        );
    }
}

#[test]
fn retry_budget_caps_attempts_and_bills_abandonment() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    // Zero retries allowed: the first doomed attempt abandons.
    let report = Cluster::new(
        scenario_fleet(machines).with_chaos(
            ChaosConfig::new(violent_plan(machines))
                .with_max_retries(0)
                .with_price(PriceModel::duration_only()),
        ),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 1)
    .expect("chaos run completes");
    assert!(report.chaos.abandoned > 0, "cap 0 must abandon doomed work");
    assert_eq!(report.chaos.retries, 0, "cap 0 never re-enqueues");
    assert_eq!(
        report.merged_records().len() as u64 + report.chaos.abandoned,
        tasks.len() as u64,
        "conservation: completed + abandoned == arrived"
    );
    assert!(report.chaos.churn_cost_usd > 0.0, "abandonment bills");
}

#[test]
fn stragglers_never_speed_anything_up() {
    // Interference-free machines and oblivious round-robin dispatch keep
    // the two runs' dispatch sequences identical (the router cannot see
    // stragglers), so records align 1:1 and FCFS monotonicity applies:
    // inflating any task's work only ever pushes completions later.
    let machines = 4;
    let tasks = scenario_workload(machines);
    let fleet = || ClusterConfig::new(machines, MachineConfig::new(4).with_seed(0x005E_EDC1));
    let plan = FaultPlan::generate(
        &FaultPlanConfig::new(0x5109_0001, 2).with_stragglers(4.0, SimDuration::from_secs(20), 3.0),
        machines,
    );
    let base = Cluster::new(fleet(), RoundRobinDispatch::new(), |_| Fifo::new())
        .run(&tasks, 2)
        .expect("baseline run completes");
    let slow = Cluster::new(
        fleet().with_chaos(ChaosConfig::new(plan)),
        RoundRobinDispatch::new(),
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("straggled run completes");
    assert!(slow.chaos.straggled_tasks > 0, "no window covered any task");
    let base_records = base.merged_records();
    let slow_records = slow.merged_records();
    assert_eq!(base_records.len(), slow_records.len(), "same completions");
    for (i, (b, s)) in base_records.iter().zip(&slow_records).enumerate() {
        assert_eq!(b.arrival, s.arrival, "record {i}: arrivals align");
        assert!(
            s.completion >= b.completion,
            "record {i}: straggling sped a task up ({:?} < {:?})",
            s.completion,
            b.completion
        );
        assert!(s.cpu_time >= b.cpu_time, "record {i}: cpu time shrank");
    }
}

#[test]
fn autoscaler_respects_bounds_and_spacing() {
    check::run("autoscaler-hysteresis", 256, |g| {
        let min = g.usize_in(1, 5);
        let max = min + g.usize_in(0, 8);
        let high = g.f64_in(1.0, 50.0);
        let cfg = AutoscaleConfig {
            min_machines: min,
            high_watermark: high,
            low_watermark: high * g.f64_in(0.0, 0.95),
            check_interval: SimDuration::from_millis(g.u64_in(1, 5_000)),
            cooldown: SimDuration::from_millis(g.u64_in(0, 30_000)),
            boot_lag: SimDuration::from_millis(g.u64_in(0, 5_000)),
        };
        let mut scaler = Autoscaler::new(cfg, max);
        let mut active = min;
        let mut now = 0u64;
        let mut last_decision: Option<u64> = None;
        for _ in 0..g.usize_in(1, 60) {
            now += g.u64_in(0, 10_000_000);
            let outstanding = g.u64_in(0, 5_000);
            match scaler.observe(now, || outstanding, active) {
                Some(ScaleDecision::Up) => {
                    assert!(active < max, "scaled past max {max}");
                    active += 1;
                }
                Some(ScaleDecision::Down) => {
                    assert!(active > min, "scaled below min {min}");
                    active -= 1;
                }
                None => continue,
            }
            if let Some(prev) = last_decision.replace(now) {
                let gap = now - prev;
                assert!(
                    gap >= cfg.cooldown.as_micros(),
                    "decisions {gap}µs apart inside the {:?} cooldown",
                    cfg.cooldown
                );
                assert!(
                    gap >= cfg.check_interval.as_micros(),
                    "decisions {gap}µs apart inside the {:?} check interval",
                    cfg.check_interval
                );
            }
        }
    });
}

#[test]
fn full_chaos_stack_is_chunk_and_thread_invariant() {
    let machines = 8;
    let tasks = scenario_workload(machines);
    let fleet = || {
        scenario_fleet(machines)
            .with_overload(
                OverloadConfig::default()
                    .with_concurrency_limit(24)
                    .with_deadline(SimDuration::from_secs(10))
                    .with_price(PriceModel::duration_only()),
            )
            .with_chaos(
                ChaosConfig::new(violent_plan(machines))
                    .with_max_retries(4)
                    .with_slo(SimDuration::from_secs(2))
                    .with_price(PriceModel::duration_only()),
            )
            .with_autoscale(AutoscaleConfig {
                min_machines: 2,
                high_watermark: 12.0,
                low_watermark: 2.0,
                check_interval: SimDuration::from_secs(1),
                cooldown: SimDuration::from_secs(5),
                boot_lag: SimDuration::from_secs(2),
            })
    };

    let exact = Cluster::new(fleet(), LeastOutstanding, |_| Fifo::new())
        .run(&tasks, 2)
        .expect("materializing run completes");
    assert!(
        exact.chaos.crashes > 0,
        "stack without crashes proves nothing"
    );
    assert!(exact.chaos.scale_ups > 0, "autoscaler never engaged");

    // Materializing: fan-width invariance, bitwise.
    for threads in [1, 4] {
        let again = Cluster::new(fleet(), LeastOutstanding, |_| Fifo::new())
            .run(&tasks, threads)
            .expect("materializing run completes");
        assert_eq!(exact.records, again.records, "fan {threads}: records");
        assert_eq!(exact.chaos, again.chaos, "fan {threads}: chaos ledger");
        assert_eq!(exact.overload, again.overload, "fan {threads}: sheds");
    }

    // Streaming: chunk-window and fan-width invariance against the
    // materializing reference.
    for window_secs in [3, 10, 30] {
        for threads in [1, 4] {
            let what = format!("window {window_secs}s fan {threads}");
            let stream = Cluster::new(fleet(), LeastOutstanding, |_| Fifo::new())
                .run_streaming(
                    chunk_workload(&tasks, SimDuration::from_secs(window_secs)),
                    &StreamOptions::default(),
                    threads,
                )
                .expect("streaming run completes");
            assert_eq!(exact.chaos, stream.chaos, "{what}: chaos ledger");
            assert_eq!(exact.overload, stream.overload, "{what}: shed ledger");
            assert_eq!(exact.cold_starts, stream.cold_starts, "{what}: cold");
            assert_eq!(
                exact.dispatched(),
                stream
                    .dispatched()
                    .iter()
                    .map(|&n| n as usize)
                    .collect::<Vec<_>>(),
                "{what}: dispatch split"
            );
            assert_eq!(exact.finished_at(), stream.finished_at(), "{what}: finish");
        }
    }
}

#[test]
fn fault_plan_is_shard_invariant_and_prefix_stable() {
    check::run("fault-plan-generator", 64, |g| {
        let mut cfg = FaultPlanConfig::new(g.u64_in(0, 1 << 48), g.usize_in(1, 12));
        if g.boolean() {
            cfg = cfg.with_crashes(
                g.f64_in(0.0, 4.0),
                SimDuration::from_millis(g.u64_in(1, 60_000)),
            );
        }
        if g.boolean() {
            cfg = cfg.with_stragglers(
                g.f64_in(0.0, 4.0),
                SimDuration::from_millis(g.u64_in(1, 60_000)),
                g.f64_in(1.0, 10.0) + 0.5,
            );
        }
        if g.boolean() {
            cfg = cfg.with_storms(
                g.f64_in(0.0, 4.0),
                SimDuration::from_millis(g.u64_in(1, 60_000)),
                g.f64_in(1.0, 16.0) + 0.5,
            );
        }
        let machines = g.usize_in(1, 40);
        let serial = FaultPlan::generate(&cfg, machines);
        // Byte-identical at any shard count.
        let shards = g.usize_in(2, 9);
        assert_eq!(
            serial,
            FaultPlan::generate_sharded(&cfg, machines, shards),
            "shard count {shards} changed the plan"
        );
        // Prefix-stable under trace truncation.
        let shorter = FaultPlanConfig {
            minutes: g.usize_in(0, cfg.minutes),
            ..cfg
        };
        let prefix = FaultPlan::generate(&shorter, machines);
        assert!(
            prefix.events().len() <= serial.events().len(),
            "truncation grew the plan"
        );
        assert_eq!(
            prefix.events(),
            &serial.events()[..prefix.events().len()],
            "truncated plan is not a prefix"
        );
        // Sanity: every event targets a real machine, time-sorted.
        for pair in serial.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "plan must be time-sorted");
        }
        assert!(serial.events().iter().all(|e| e.machine < machines));
    });
}

#[test]
fn retry_queue_is_instant_then_fifo_ordered() {
    check::run("retry-queue-order", 128, |g| {
        let ats = g.vec_u64(0, 50, 1, 40);
        let mut queue = EventQueue::new();
        for (i, &at) in ats.iter().enumerate() {
            queue.schedule(
                SimTime::from_micros(at),
                RetryEntry {
                    task: ClusterTask {
                        spec: TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(1), 128),
                        function: i as u64,
                    },
                    attempts: 1,
                    avoid: None,
                },
            );
        }
        let mut expected: Vec<(u64, u64)> = ats
            .iter()
            .enumerate()
            .map(|(i, &at)| (at, i as u64))
            .collect();
        expected.sort_by_key(|&(at, _)| at); // stable: FIFO on equal instants
        let mut popped = Vec::new();
        while let Some((at, entry)) = queue.pop() {
            popped.push((at.as_micros(), entry.task.function));
        }
        assert_eq!(popped, expected, "pop order must be (instant, FIFO)");
    });
}

#[test]
fn breakers_trip_on_crash_induced_timeout_spikes() {
    // A crashed machine drops to zero outstanding, so least-outstanding
    // dispatch steers arrivals straight into it — where the booked wait
    // (the whole remaining downtime) blows the deadline. The timeout
    // verdicts flood the breaker window and trip it. Without the crash
    // plan the same stack sheds only a background trickle and never
    // accumulates enough consecutive timeouts to trip a breaker.
    let machines = 4;
    let tasks = scenario_workload(machines);
    let stack = || {
        OverloadConfig::default()
            .with_deadline(SimDuration::from_secs(10))
            .with_breaker(faas_cluster::BreakerConfig {
                window: 16,
                trip_pct: 50,
                cooldown: SimDuration::from_secs(2),
            })
            .with_price(PriceModel::duration_only())
    };
    let plan = FaultPlan::generate(
        &FaultPlanConfig::new(0xB4EA_6E01, 2).with_crashes(4.0, SimDuration::from_secs(20)),
        machines,
    );
    let calm = Cluster::new(
        scenario_fleet(machines).with_overload(stack()),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("calm run completes");
    assert_eq!(
        calm.overload.breaker_trips, 0,
        "stack must not trip without faults: {:?}",
        calm.overload
    );
    let stormy = Cluster::new(
        scenario_fleet(machines)
            .with_overload(stack())
            .with_chaos(ChaosConfig::new(plan)),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("stormy run completes");
    assert!(
        stormy.overload.shed_timeout > calm.overload.shed_timeout,
        "crash downtime must blow the deadline far past the calm trickle: {:?} vs {:?}",
        stormy.overload,
        calm.overload
    );
    assert!(
        stormy.overload.breaker_trips > 0,
        "timeout spike must trip breakers: {:?}",
        stormy.overload
    );
}

#[test]
fn admission_caps_bound_backlog_through_redispatch_floods() {
    // Saturation shape plus a mid-stream crash: the re-dispatch flood and
    // post-crash pile-up blow the bare kernel backlog up; a concurrency
    // cap holds peak in-flight down through the same storm.
    let machines = 2;
    let tasks: Vec<ClusterTask> = (0..1_600)
        .map(|i| ClusterTask {
            spec: TaskSpec::function(
                SimTime::from_micros(i * 625),
                SimDuration::from_millis(40),
                128,
            ),
            function: i % 4,
        })
        .collect();
    let plan = FaultPlan::generate(
        &FaultPlanConfig::new(0xF100_D001, 1).with_crashes(2.0, SimDuration::from_millis(200)),
        machines,
    );
    let fleet = || {
        ClusterConfig::new(machines, MachineConfig::new(2))
            .with_chaos(ChaosConfig::new(plan.clone()))
    };
    let bare = Cluster::new(fleet(), LeastOutstanding, |_| Fifo::new())
        .run(&tasks, 2)
        .expect("bare run completes");
    assert!(bare.chaos.retries > 0, "the crash doomed nothing");
    let capped = Cluster::new(
        fleet().with_overload(
            OverloadConfig::default()
                .with_concurrency_limit(4)
                .with_price(PriceModel::duration_only()),
        ),
        LeastOutstanding,
        |_| Fifo::new(),
    )
    .run(&tasks, 2)
    .expect("capped run completes");
    assert!(
        bare.max_in_flight() > 400,
        "bare backlog should blow up: {}",
        bare.max_in_flight()
    );
    assert!(
        capped.max_in_flight() <= 20,
        "capped backlog must stay near the cap through the flood: {}",
        capped.max_in_flight()
    );
    assert!(capped.overload.shed_concurrency > 0);
}
