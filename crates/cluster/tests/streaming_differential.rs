//! Differential pins of the streaming cluster path against the
//! materializing one, on the cluster01–03 scenario shapes (downscaled
//! W2 traces, same machine/dispatch/cold-start structure):
//!
//! * dispatch decisions are byte-identical — the front end makes the
//!   same pick sequence whether it sees the workload whole or chunked;
//! * every exact statistic (counts, means, maxima, totals, core stats,
//!   event counts, finish instants) and the billed dollar cost (bitwise)
//!   match the materializing run, at streaming fan widths 1, 2 and 4;
//! * sketched quantiles land within the sketch's own a-posteriori
//!   rank-error certificate of the exact nearest-rank answers;
//! * peak live-task memory is set by the arrival rate, not the stream
//!   length: a 10× longer trace at the same rate holds ~the same number
//!   of records, while the materializing path would hold 10× more.

use std::cell::RefCell;
use std::rc::Rc;

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{
    KeepAliveDispatch, LeastOutstanding, RandomDispatch, RoundRobinDispatch,
};
use faas_cluster::{
    chunk_workload, workload_from_trace, Cluster, ClusterConfig, ClusterTask, ClusterTaskStream,
    ColdStartConfig, Dispatch, DispatchCtx, StreamClusterReport, StreamOptions,
};
use faas_kernel::{InterferenceConfig, MachineConfig, Scheduler};
use faas_metrics::{Metric, RunSummary, StreamRunStats, TaskRecord};
use faas_policies::Fifo;
use faas_simcore::SimDuration;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::{CostAccumulator, PriceModel};

/// Test-scale double of the bench crate's cluster01–03 fleet: same
/// structure (interference on, Firecracker cold starts, W2 × machines
/// RPS), smaller cores and a downscaled trace so the differential runs
/// four full cluster simulations per shape in test time.
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

fn stream_opts() -> StreamOptions {
    StreamOptions {
        epsilon: 1e-3,
        price: Some(PriceModel::duration_only()),
    }
}

/// Asserts that a sketched quantile lies within the sketch's own
/// rank-error certificate of the exact nearest-rank answer: its value
/// must fall between the sorted values at ranks `r ± bound`.
fn assert_quantile_within_bound(
    sorted: &[SimDuration],
    got: SimDuration,
    q: f64,
    bound: u64,
    what: &str,
) {
    let n = sorted.len();
    let r = ((q * n as f64).ceil() as usize).clamp(1, n);
    let b = bound as usize;
    let lo = sorted[(r - 1).saturating_sub(b)];
    let hi = sorted[(r - 1 + b).min(n - 1)];
    assert!(
        got >= lo && got <= hi,
        "{what} p{q}: {got:?} outside rank-error window [{lo:?}, {hi:?}] (rank {r} ± {b}, n = {n})"
    );
}

/// Full cross-check of one streaming report against the materializing
/// records it must reproduce.
fn assert_stream_matches(
    exact_records: &[Vec<TaskRecord>],
    stream: &StreamClusterReport,
    epsilon: f64,
    what: &str,
) {
    // Per-machine exact aggregates: count, mean, max, total — plus the
    // invocation split itself.
    for (i, (records, machine)) in exact_records.iter().zip(&stream.machines).enumerate() {
        assert_eq!(
            records.len() as u64,
            machine.tasks,
            "{what}: machine {i} task count"
        );
        if records.is_empty() {
            assert!(machine.stats.is_empty());
            continue;
        }
        let exact = RunSummary::compute(records);
        let streamed = machine.stats.to_summary();
        for (metric, e, s) in [
            ("execution", exact.execution, streamed.execution),
            ("response", exact.response, streamed.response),
            ("turnaround", exact.turnaround, streamed.turnaround),
        ] {
            assert_eq!(e.count, s.count, "{what}: machine {i} {metric} count");
            assert_eq!(e.mean, s.mean, "{what}: machine {i} {metric} mean");
            assert_eq!(e.max, s.max, "{what}: machine {i} {metric} max");
            assert_eq!(e.total, s.total, "{what}: machine {i} {metric} total");
        }
    }

    // Merged quantiles: sketched answers must carry their certificate.
    let merged: Vec<TaskRecord> = exact_records.iter().flatten().cloned().collect();
    let summary = stream.summary();
    for metric in Metric::ALL {
        let stats = match metric {
            Metric::Execution => &summary.merged.execution,
            Metric::Response => &summary.merged.response,
            Metric::Turnaround => &summary.merged.turnaround,
        };
        assert_eq!(merged.len() as u64, stats.count());
        let bound = stats.rank_error_bound();
        // The GK invariant caps the certificate at ε·n.
        assert!(
            bound as f64 <= epsilon * merged.len() as f64 + 1.0,
            "{what}: {metric:?} rank-error bound {bound} exceeds εn"
        );
        let mut sorted: Vec<SimDuration> = merged.iter().map(|r| metric.of(r)).collect();
        sorted.sort_unstable();
        for q in [0.50, 0.90, 0.99, 0.999] {
            assert_quantile_within_bound(
                &sorted,
                stats.quantile(q),
                q,
                bound,
                &format!("{what}: merged {metric:?}"),
            );
        }
        // Min/max are tracked exactly, never sketched.
        assert_eq!(sorted[sorted.len() - 1], stats.max());
    }

    // Billing: the streaming accumulator folds the same f64 sum in the
    // same order as pricing the materialized records — bitwise equal.
    let exact_cost = PriceModel::duration_only().cluster_workload_cost(exact_records);
    assert_eq!(
        exact_cost.to_bits(),
        stream.total_cost_usd().to_bits(),
        "{what}: billed cost diverged ({exact_cost} vs {})",
        stream.total_cost_usd()
    );
}

#[test]
fn streaming_matches_materializing_on_cluster_scenario_shapes() {
    // cluster01/02/03 shapes: fleet size × per-machine scheduler ×
    // dispatch policy, as in the bench registry (FIFO axis on the small
    // fleet, hybrid nodes above it).
    run_shape("cluster01", 4, || KeepAliveDispatch, |_| Fifo::new());
    run_shape(
        "cluster02",
        16,
        || LeastOutstanding,
        |_| HybridScheduler::new(HybridConfig::split(2, 2)),
    );
    run_shape(
        "cluster03",
        64,
        || RandomDispatch::new(0xC105),
        |_| HybridScheduler::new(HybridConfig::split(2, 2)),
    );
}

fn run_shape<D, P, F>(id: &str, machines: usize, make_dispatch: impl Fn() -> D, make_policy: F)
where
    D: Dispatch,
    P: Scheduler + Send,
    F: Fn(usize) -> P + Sync + Copy,
{
    let tasks = scenario_workload(machines);
    let exact = Cluster::new(scenario_fleet(machines), make_dispatch(), make_policy)
        .run(&tasks, 2)
        .expect("materializing run completes");
    let chunks = chunk_workload(&tasks, SimDuration::from_secs(10));

    let mut stats_by_width: Vec<Vec<StreamRunStats>> = Vec::new();
    for threads in [1, 2, 4] {
        let what = format!("{id} @ fan width {threads}");
        let stream = Cluster::new(scenario_fleet(machines), make_dispatch(), make_policy)
            .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
            .expect("streaming run completes");

        assert_eq!(exact.dispatch, stream.dispatch, "{what}: policy name");
        assert_eq!(exact.cold_starts, stream.cold_starts, "{what}: cold starts");
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
        for (i, (e, s)) in exact.machines.iter().zip(&stream.machines).enumerate() {
            assert_eq!(e.policy, s.policy, "{what}: machine {i} policy");
            assert_eq!(e.core_stats, s.core_stats, "{what}: machine {i} cores");
            assert_eq!(
                e.events_processed, s.events_processed,
                "{what}: machine {i} event count"
            );
            assert_eq!(e.finished_at, s.finished_at, "{what}: machine {i} finish");
        }
        assert_stream_matches(&exact.records, &stream, stream_opts().epsilon, &what);
        stats_by_width.push(stream.machines.into_iter().map(|m| m.stats).collect());
    }

    // The accumulators themselves — sketch tuples included — are
    // byte-identical across fan widths: merging is machine-order, not
    // completion-order.
    assert_eq!(stats_by_width[0], stats_by_width[1], "{id}: width 1 vs 2");
    assert_eq!(stats_by_width[1], stats_by_width[2], "{id}: width 2 vs 4");
}

#[test]
fn never_fed_machines_report_as_the_materializing_path_does() {
    // A 64-node fleet where keep-alive packs a light stream onto a few
    // machines: most machines never get an invocation, so the streaming
    // path never builds their state, and must still report each of them
    // exactly as the materializing path, which runs every machine.
    let machines = 64;
    let tasks = scenario_workload(2);
    let fleet = || scenario_fleet(machines);
    let policy = |_| HybridScheduler::new(HybridConfig::split(2, 2));
    let exact = Cluster::new(fleet(), KeepAliveDispatch, policy)
        .run(&tasks, 2)
        .expect("materializing run completes");
    let never_fed = exact.dispatched().iter().filter(|&&n| n == 0).count();
    assert!(
        never_fed >= machines * 3 / 4,
        "only {never_fed} of {machines} machines got no work"
    );
    let price = PriceModel::duration_only();
    let chunks = chunk_workload(&tasks, SimDuration::from_secs(10));
    for threads in [1, 4] {
        let stream = Cluster::new(fleet(), KeepAliveDispatch, policy)
            .run_streaming(chunks.iter().cloned(), &stream_opts(), threads)
            .expect("streaming run completes");
        assert_eq!(stream.machines.len(), machines);
        for (i, ((e, records), s)) in exact
            .machines
            .iter()
            .zip(&exact.records)
            .zip(&stream.machines)
            .enumerate()
        {
            let what = format!("machine {i} @ fan width {threads}");
            let mut stats = StreamRunStats::new(stream_opts().epsilon);
            let mut cost = CostAccumulator::new(price);
            for r in records {
                stats.record(r);
                cost.record(r);
            }
            assert_eq!(e.policy, s.policy, "{what}: policy");
            assert_eq!(e.core_stats, s.core_stats, "{what}: core stats");
            assert_eq!(e.finished_at, s.finished_at, "{what}: finish");
            assert_eq!(e.events_processed, s.events_processed, "{what}: events");
            assert_eq!(records.len() as u64, s.tasks, "{what}: tasks");
            assert_eq!(e.max_in_flight, s.max_in_flight, "{what}: in flight");
            assert_eq!(e.cancelled, s.cancelled, "{what}: cancelled");
            assert_eq!(
                cost.total_usd().to_bits(),
                s.cost_usd.to_bits(),
                "{what}: cost bits"
            );
            assert_eq!(stats, s.stats, "{what}: accumulators and sketches");
            if records.is_empty() {
                assert_eq!(s.max_live_tasks, 0, "{what}: live tasks");
            }
        }
    }
}

/// Wraps a dispatch policy and records every pick it makes, proving the
/// front end sees the identical decision stream on both paths. The
/// dispatch phase is serial, so a plain `Rc` journal suffices.
struct RecordingDispatch<D> {
    inner: D,
    picks: Rc<RefCell<Vec<usize>>>,
}

impl<D> RecordingDispatch<D> {
    fn new(inner: D) -> (Self, Rc<RefCell<Vec<usize>>>) {
        let picks = Rc::new(RefCell::new(Vec::new()));
        let rec = RecordingDispatch {
            inner,
            picks: Rc::clone(&picks),
        };
        (rec, picks)
    }
}

impl<D: Dispatch> Dispatch for RecordingDispatch<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        let pick = self.inner.pick(ctx);
        self.picks.borrow_mut().push(pick);
        pick
    }
}

#[test]
fn dispatch_pick_sequences_are_byte_identical() {
    // Every stock policy, including the stateful warm-pool one whose
    // picks depend on simulated machine load carried across chunks.
    let cfg = TraceConfig::w2().rps_scaled(8).downscaled(64);
    let tasks = workload_from_trace(&AzureTrace::generate(&cfg), 1);
    type DispatchFactory = fn() -> Box<dyn Dispatch>;
    let factories: Vec<(&str, DispatchFactory)> = vec![
        ("random", || Box::new(RandomDispatch::new(7))),
        ("round-robin", || Box::new(RoundRobinDispatch::new())),
        ("least-outstanding", || Box::new(LeastOutstanding)),
        ("keep-alive", || Box::new(KeepAliveDispatch)),
    ];
    for (name, make) in factories {
        let fleet = || scenario_fleet(8);

        let (rec, exact_picks) = RecordingDispatch::new(make());
        Cluster::new(fleet(), rec, |_| Fifo::new())
            .run(&tasks, 2)
            .expect("materializing run completes");

        let (rec, streamed_picks) = RecordingDispatch::new(make());
        Cluster::new(fleet(), rec, |_| Fifo::new())
            .run_streaming(
                chunk_workload(&tasks, SimDuration::from_secs(5)),
                &StreamOptions::default(),
                4,
            )
            .expect("streaming run completes");

        assert_eq!(exact_picks.borrow().len(), tasks.len(), "{name}");
        assert_eq!(
            *exact_picks.borrow(),
            *streamed_picks.borrow(),
            "{name} pick sequences diverged"
        );
    }
}

#[test]
fn streaming_a_trace_stream_matches_materializing_the_trace() {
    // End-to-end over the lazy trace feed itself (not a pre-chunked
    // in-memory workload): ClusterTaskStream vs workload_from_trace on
    // the same config, sharded generation on the materializing side.
    let cfg = TraceConfig::w2().downscaled(8);
    let fleet = || {
        ClusterConfig::new(6, MachineConfig::new(2).with_seed(0xFEED))
            .with_cold_start(ColdStartConfig::firecracker())
    };

    let tasks = workload_from_trace(&AzureTrace::generate_sharded(&cfg, 4), 4);
    let exact = Cluster::new(fleet(), RoundRobinDispatch::new(), |_| Fifo::new())
        .run(&tasks, 2)
        .expect("materializing run completes");

    let stream = Cluster::new(fleet(), RoundRobinDispatch::new(), |_| Fifo::new())
        .run_streaming(ClusterTaskStream::new(&cfg, 1), &stream_opts(), 2)
        .expect("streaming run completes");

    assert_eq!(exact.cold_starts, stream.cold_starts);
    assert_eq!(exact.finished_at(), stream.finished_at());
    assert_eq!(
        exact.dispatched(),
        stream
            .dispatched()
            .iter()
            .map(|&n| n as usize)
            .collect::<Vec<_>>()
    );
    assert_stream_matches(
        &exact.records,
        &stream,
        stream_opts().epsilon,
        "trace-stream",
    );
}

#[test]
fn peak_memory_is_independent_of_stream_length() {
    // Same arrival rate, 10× the duration (and invocations). The
    // materializing path's footprint grows 10×; the streaming path's
    // peak live-task count and sketch size must stay ~flat.
    let base_cfg = TraceConfig::w2().downscaled(16); // ~777 over 2 min
    let long_cfg = TraceConfig {
        minutes: base_cfg.minutes * 10,
        total_invocations: base_cfg.total_invocations * 10,
        ..base_cfg.clone()
    };
    let opts = StreamOptions {
        epsilon: 0.01,
        price: None,
    };
    let run = |cfg: &TraceConfig| {
        Cluster::new(
            ClusterConfig::new(4, MachineConfig::new(4)),
            LeastOutstanding,
            |_| Fifo::new(),
        )
        .run_streaming(ClusterTaskStream::new(cfg, 1), &opts, 2)
        .expect("streaming run completes")
    };
    let base = run(&base_cfg);
    let long = run(&long_cfg);

    let total = long_cfg.total_invocations as u64;
    assert_eq!(long.dispatched().iter().sum::<u64>(), total);

    // Peak resident records: bounded by the per-chunk arrival rate, not
    // the trace length — nowhere near the 10× a materializing run holds.
    assert!(
        long.max_live_tasks() <= 3 * base.max_live_tasks(),
        "peak live tasks grew with stream length: {} -> {}",
        base.max_live_tasks(),
        long.max_live_tasks()
    );
    assert!(
        (long.max_live_tasks() as u64) < total / 4,
        "peak live tasks ({}) is O(total invocations)",
        long.max_live_tasks()
    );

    // Sketch footprint grows at most logarithmically with n.
    let base_tuples = base.summary().tuple_count();
    let long_tuples = long.summary().tuple_count();
    assert!(
        long_tuples <= 4 * base_tuples,
        "sketch tuples grew linearly: {base_tuples} -> {long_tuples}"
    );
    assert!(
        (long_tuples as u64) < total / 4,
        "sketch tuples ({long_tuples}) are O(total invocations)"
    );
}
