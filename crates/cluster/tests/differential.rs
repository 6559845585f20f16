//! Differential pins of the cluster layer:
//!
//! * a 1-machine cluster under `Passthrough` dispatch **is** the legacy
//!   single-machine `Simulation` — identical task records and identical
//!   kernel message streams, under randomized workloads, policies and
//!   interference;
//! * a cluster run is deterministic: byte-equal results at any machine
//!   fan width (the `BENCH_THREADS∈{1,4}` contract) and run-to-run.

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{
    KeepAliveDispatch, LeastOutstanding, Passthrough, RandomDispatch, RoundRobinDispatch,
};
use faas_cluster::{workload_from_trace, Cluster, ClusterConfig, ClusterTask, ColdStartConfig};
use faas_kernel::{InterferenceConfig, KernelMessage, MachineConfig, Scheduler, Simulation};
use faas_metrics::{records_from_tasks, TaskRecord};
use faas_policies::{Cfs, Fifo};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler};

fn tiny_workload(seed: u64, invocations: usize) -> Vec<ClusterTask> {
    let cfg = TraceConfig {
        total_invocations: invocations,
        ..TraceConfig::tiny().with_seed(seed)
    };
    workload_from_trace(&AzureTrace::generate(&cfg), 1)
}

/// Runs the legacy path: one `Simulation` over the same specs a
/// passthrough cluster would hand machine 0.
fn legacy_run<P: Scheduler>(
    cluster_cfg: &ClusterConfig,
    tasks: &[ClusterTask],
    policy: P,
) -> (Vec<TaskRecord>, Vec<(SimTime, KernelMessage)>) {
    let specs: Vec<_> = tasks.iter().map(|t| t.spec.clone()).collect();
    let report = Simulation::new(cluster_cfg.machine_config(0), &specs, policy)
        .run_slim()
        .unwrap();
    let records = records_from_tasks(&report.tasks);
    (records, report.messages)
}

#[test]
fn one_machine_passthrough_cluster_is_the_legacy_simulation() {
    // Interference on (exercises the machine RNG) and message log on
    // (pins the whole kernel event stream, not just the end state).
    let machine = MachineConfig::new(4)
        .with_interference(InterferenceConfig::default())
        .with_seed(0xC10C)
        .with_message_log();
    let cfg = ClusterConfig::new(1, machine);
    let tasks = tiny_workload(11, 120);

    let (legacy_records, legacy_messages) = legacy_run(&cfg, &tasks, Fifo::new());
    let report = Cluster::new(cfg, Passthrough, |_| Fifo::new())
        .run(&tasks, 1)
        .unwrap();

    assert_eq!(report.records[0], legacy_records, "task records diverged");
    assert_eq!(
        report.machines[0].messages, legacy_messages,
        "kernel message streams diverged"
    );
    assert_eq!(report.cold_starts, 0);
}

#[test]
fn one_machine_differential_holds_under_random_policies_and_seeds() {
    faas_simcore::check::run("1-machine cluster == Simulation", 12, |g| {
        let seed = g.u64_in(0, u64::MAX);
        let invocations = g.usize_in(1, 200);
        let cores = g.usize_in(1, 6);
        let with_interference = g.usize_in(0, 1) == 1;
        let policy_kind = g.usize_in(0, 2);

        let mut machine = MachineConfig::new(cores).with_seed(seed).with_message_log();
        if with_interference {
            machine = machine.with_interference(InterferenceConfig {
                mean_interval: SimDuration::from_millis(200),
                duration: SimDuration::from_millis(5),
            });
        }
        let cfg = ClusterConfig::new(1, machine);
        let tasks = tiny_workload(seed, invocations);

        // The same policy constructor drives both paths.
        macro_rules! diff {
            ($make:expr) => {{
                let (legacy_records, legacy_messages) = legacy_run(&cfg, &tasks, $make);
                let report = Cluster::new(cfg.clone(), Passthrough, |_| $make)
                    .run(&tasks, 1)
                    .unwrap();
                assert_eq!(report.records[0], legacy_records);
                assert_eq!(report.machines[0].messages, legacy_messages);
            }};
        }
        match policy_kind {
            0 => diff!(Fifo::new()),
            1 => diff!(Cfs::with_cores(cores)),
            _ => {
                if cores >= 2 {
                    let split = cores / 2;
                    diff!(HybridScheduler::new(HybridConfig::split(
                        cores - split,
                        split
                    )))
                } else {
                    diff!(Fifo::new())
                }
            }
        }
    });
}

#[test]
fn cluster_results_are_invariant_to_fan_width_and_rerun() {
    // A real fleet shape: 6 machines, cold starts on, locality dispatch.
    let tasks = tiny_workload(3, 400);
    let run = |threads: usize| {
        let cfg = ClusterConfig::new(6, MachineConfig::new(2).with_seed(99))
            .with_cold_start(ColdStartConfig::firecracker());
        Cluster::new(cfg, KeepAliveDispatch, |_| Fifo::new())
            .run(&tasks, threads)
            .unwrap()
    };
    let t1 = run(1);
    let t4a = run(4);
    let t4b = run(4);
    assert_eq!(t1.merged_records(), t4a.merged_records());
    assert_eq!(t4a.merged_records(), t4b.merged_records());
    assert_eq!(t1.dispatched(), t4a.dispatched());
    assert_eq!(t1.cold_starts, t4a.cold_starts);
    assert_eq!(t1.finished_at(), t4a.finished_at());
}

#[test]
fn every_stock_dispatch_policy_completes_the_workload() {
    let tasks = tiny_workload(5, 300);
    let total = tasks.len();
    let policies: Vec<(Box<dyn faas_cluster::Dispatch>, &str)> = vec![
        (Box::new(RandomDispatch::new(7)), "random"),
        (Box::new(RoundRobinDispatch::new()), "round-robin"),
        (Box::new(LeastOutstanding), "least-outstanding"),
        (Box::new(KeepAliveDispatch), "keep-alive"),
    ];
    for (dispatch, name) in policies {
        let cfg = ClusterConfig::new(4, MachineConfig::new(2))
            .with_cold_start(ColdStartConfig::firecracker());
        let report = Cluster::new(cfg, dispatch, |_| Fifo::new())
            .run(&tasks, 2)
            .unwrap();
        assert_eq!(report.dispatch, name);
        assert_eq!(
            report.merged_records().len(),
            total,
            "{name} lost invocations"
        );
    }
}
