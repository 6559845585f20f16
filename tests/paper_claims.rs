//! Integration tests asserting the paper's observations and conclusions
//! hold end-to-end on a scaled workload (1/10 of W2 on 1/10 of the cores,
//! preserving the paper's ~1.8x overload).

use serverless_hybrid_sched::prelude::*;

const CORES: usize = 5;

fn trace() -> AzureTrace {
    AzureTrace::generate(&TraceConfig::w2().downscaled(10))
}

fn machine() -> MachineConfig {
    MachineConfig::new(CORES).with_interference(InterferenceConfig::default())
}

fn run(policy: impl Scheduler) -> (SlimReport, Vec<TaskRecord>) {
    let report = Simulation::new(machine(), trace().to_task_specs(), policy)
        .run_slim()
        .expect("completes");
    let records = records_from_tasks(&report.tasks);
    (report, records)
}

fn hybrid() -> HybridScheduler {
    // 50/50 split, paper limit.
    HybridScheduler::new(HybridConfig::split(3, 2))
}

#[test]
fn observation_2_fifo_beats_cfs_on_execution_loses_on_response() {
    let (_, fifo) = run(Fifo::new());
    let (_, cfs) = run(Cfs::with_cores(CORES));
    let fifo_s = RunSummary::compute(&fifo);
    let cfs_s = RunSummary::compute(&cfs);
    assert!(
        fifo_s.execution.p50 * 5 < cfs_s.execution.p50,
        "FIFO median execution must be several times shorter (fifo {} vs cfs {})",
        fifo_s.execution.p50,
        cfs_s.execution.p50
    );
    assert!(
        cfs_s.response.p99 * 10 < fifo_s.response.p99,
        "CFS p99 response must be far lower (cfs {} vs fifo {})",
        cfs_s.response.p99,
        fifo_s.response.p99
    );
}

#[test]
fn observation_3_preemption_limit_improves_fifo_response_and_turnaround() {
    let (_, fifo) = run(Fifo::new());
    let (_, limited) = run(Fifo::with_limit(SimDuration::from_millis(100)));
    let fifo_s = RunSummary::compute(&fifo);
    let lim_s = RunSummary::compute(&limited);
    assert!(
        lim_s.response.p99 < fifo_s.response.p99,
        "response improves"
    );
    assert!(
        lim_s.execution.p50 >= fifo_s.execution.p50,
        "execution time is the price of preemption"
    );
}

#[test]
fn observation_5_cfs_costs_many_times_more_than_fifo() {
    let (_, fifo) = run(Fifo::new());
    let (_, cfs) = run(Cfs::with_cores(CORES));
    let model = PriceModel::duration_only();
    let ratio = model.workload_cost(&cfs) / model.workload_cost(&fifo);
    assert!(
        ratio > 5.0,
        "CFS/FIFO cost ratio was only {ratio:.1}x (paper: >10x)"
    );
}

#[test]
fn conclusion_1_hybrid_beats_cfs_on_execution_and_turnaround() {
    let (_, hybrid_recs) = run(hybrid());
    let (_, cfs) = run(Cfs::with_cores(CORES));
    let h = RunSummary::compute(&hybrid_recs);
    let c = RunSummary::compute(&cfs);
    assert!(
        h.execution.p99 * 5 < c.execution.p99,
        "hybrid p99 execution must collapse vs CFS ({} vs {})",
        h.execution.p99,
        c.execution.p99
    );
    assert!(
        h.turnaround.p99 < c.turnaround.p99,
        "hybrid also wins turnaround"
    );
    assert!(
        c.response.p99 < h.response.p99,
        "CFS keeps the response-time crown"
    );
}

#[test]
fn conclusion_1_hybrid_reduces_preemptions_on_fifo_cores() {
    let (report, _) = run(hybrid());
    let fifo_group: u64 = report.core_stats[..3].iter().map(|s| s.preemptions).sum();
    let cfs_group: u64 = report.core_stats[3..].iter().map(|s| s.preemptions).sum();
    assert!(
        fifo_group * 10 < cfs_group,
        "FIFO-group preemptions ({fifo_group}) must be orders below CFS-group ({cfs_group})"
    );
}

#[test]
fn conclusion_4_hybrid_is_the_cheapest_of_the_three() {
    let model = PriceModel::duration_only();
    let (_, h) = run(hybrid());
    let (_, f) = run(Fifo::new());
    let (_, c) = run(Cfs::with_cores(CORES));
    let (hc, fc, cc) = (
        model.workload_cost(&h),
        model.workload_cost(&f),
        model.workload_cost(&c),
    );
    assert!(hc < cc, "hybrid (${hc:.4}) must undercut CFS (${cc:.4})");
    assert!(fc < cc, "FIFO also undercuts CFS");
    assert!(
        hc < fc * 1.6,
        "hybrid stays in FIFO's cost class (${hc:.4} vs ${fc:.4})"
    );
}

#[test]
fn figure_15_larger_percentile_limits_give_better_execution() {
    let model = MachineConfig::new(CORES);
    let mut means = Vec::new();
    for pct in [0.50, 0.95] {
        let cfg = HybridConfig::split(3, 2).with_time_limit(TimeLimitPolicy::Adaptive {
            percentile: pct,
            initial: SimDuration::from_millis(1_633),
        });
        let report = Simulation::new(
            model.clone(),
            trace().to_task_specs(),
            HybridScheduler::new(cfg),
        )
        .run_slim()
        .expect("completes");
        let records = records_from_tasks(&report.tasks);
        means.push(RunSummary::compute(&records).execution.mean);
    }
    assert!(
        means[1] < means[0],
        "p95 limit must beat p50 on mean execution ({} vs {})",
        means[1],
        means[0]
    );
}

#[test]
fn figure_11_extreme_split_shows_long_tail() {
    let balanced = {
        let report = Simulation::new(
            machine(),
            trace().to_task_specs(),
            HybridScheduler::new(HybridConfig::split(3, 2)),
        )
        .run_slim()
        .expect("completes");
        RunSummary::compute(&records_from_tasks(&report.tasks))
            .execution
            .p99
    };
    let starved_cfs = {
        let report = Simulation::new(
            machine(),
            trace().to_task_specs(),
            HybridScheduler::new(HybridConfig::split(4, 1)),
        )
        .run_slim()
        .expect("completes");
        RunSummary::compute(&records_from_tasks(&report.tasks))
            .execution
            .p99
    };
    assert!(
        balanced * 2 < starved_cfs,
        "starving the CFS group must blow up the execution tail ({balanced} vs {starved_cfs})"
    );
}

#[test]
fn all_tasks_always_complete_under_every_policy() {
    let n = trace().len();
    let (r1, _) = run(Fifo::new());
    let (r2, _) = run(Cfs::with_cores(CORES));
    let (r3, _) = run(hybrid());
    let (r4, _) = run(Edf::new());
    let (r5, _) = run(Fifo::round_robin(SimDuration::from_millis(10)));
    let (r6, _) = run(Fifo::shinjuku(SimDuration::from_millis(1)));
    for r in [r1, r2, r3, r4, r5, r6] {
        assert_eq!(
            r.tasks.iter().filter(|t| t.completion().is_some()).count(),
            n,
            "{} stranded tasks",
            r.policy
        );
    }
}
