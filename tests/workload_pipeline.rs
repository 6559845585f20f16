//! Integration tests of the Fig. 9 deployment pipeline: trace synthesis →
//! workload file → simulation → metrics → pricing, across crates.

use serverless_hybrid_sched::prelude::*;
use serverless_hybrid_sched::trace::{ks_statistic, EmpiricalCdf};

#[test]
fn csv_roundtrip_preserves_simulation_results() {
    let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(50));
    let mut file = Vec::new();
    trace.write_csv(&mut file).expect("write workload file");
    let reloaded = AzureTrace::read_csv(&file[..]).expect("read workload file");
    assert_eq!(trace.invocations(), reloaded.invocations());

    // The reloaded workload drives the same simulation: arrivals and
    // nominal durations survive the round-trip (jitter is a property of
    // the generator, not the file, so compare the invocations directly).
    let run = |t: &AzureTrace| {
        let specs: Vec<_> = t
            .invocations()
            .iter()
            .map(|i| {
                serverless_hybrid_sched::kernel::TaskSpec::function(
                    i.arrival, i.duration, i.mem_mib,
                )
            })
            .collect();
        Simulation::new(MachineConfig::new(4), specs, Fifo::new())
            .run_slim()
            .expect("completes")
            .finished_at
    };
    assert_eq!(run(&trace), run(&reloaded));
}

#[test]
fn fig10_sample_is_representative() {
    // The 2-minute sample's duration CDF must track a much longer trace.
    let sample = AzureTrace::generate(&TraceConfig::w2().downscaled(4));
    let long = AzureTrace::generate(&TraceConfig::w10().downscaled(4));
    let durs = |t: &AzureTrace| {
        EmpiricalCdf::from_samples(
            t.invocations()
                .iter()
                .map(|i| i.duration.as_secs_f64())
                .collect(),
        )
    };
    let ks = ks_statistic(&durs(&sample), &durs(&long));
    assert!(
        ks < 0.02,
        "KS statistic {ks} too large — sample unrepresentative"
    );
}

#[test]
fn prelude_end_to_end_smoke() {
    // The quickstart path, via nothing but the facade prelude: synthesize
    // a trace, run it through the paper's hybrid scheduler, extract the
    // metric records, and bill them.
    let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(50));
    let n = trace.len();
    assert!(n > 0, "downscaled W2 still contains invocations");
    let cfg = HybridConfig::paper_25_25();
    let report = Simulation::new(
        MachineConfig::new(cfg.total_cores()),
        trace.to_task_specs(),
        HybridScheduler::new(cfg),
    )
    .run_slim()
    .expect("hybrid simulation completes");
    let records = records_from_tasks(&report.tasks);
    assert_eq!(records.len(), n, "one metrics record per invocation");
    assert!(
        records
            .iter()
            .all(|r| r.execution_time() > SimDuration::ZERO),
        "every task executed for a nonzero duration"
    );
    let usd = PriceModel::duration_only().workload_cost(&records);
    assert!(usd > 0.0, "the workload costs real money");
}

#[test]
fn same_seed_same_bill() {
    let cost = || {
        let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(25));
        let report = Simulation::new(
            MachineConfig::new(4),
            trace.to_task_specs(),
            HybridScheduler::new(HybridConfig::split(2, 2)),
        )
        .run_slim()
        .expect("completes");
        PriceModel::duration_only().workload_cost(&records_from_tasks(&report.tasks))
    };
    assert_eq!(
        cost().to_bits(),
        cost().to_bits(),
        "whole pipeline is deterministic"
    );
}

#[test]
fn firecracker_fleet_pipeline() {
    use serverless_hybrid_sched::firecracker::{run_fleet, FirecrackerConfig};
    let trace = AzureTrace::generate(&TraceConfig::w10().downscaled(100))
        .truncated(30)
        .stretched(3.0);
    let fc = FirecrackerConfig {
        host_mem_mib: 4 * 1_024,
        drain_cores: 4,
        ..FirecrackerConfig::paper_fleet()
    };
    let out = run_fleet(
        &trace,
        &fc,
        4,
        HybridScheduler::new(HybridConfig::split(2, 2)),
    )
    .expect("fleet completes");
    assert_eq!(out.plan.vms().len(), 30);
    assert_eq!(out.vm_records.len(), out.plan.launched());
    assert!(
        out.plan.failed() > 0,
        "tiny host must reject part of the burst"
    );
    // Billing covers exactly the completed VMs.
    let usd = PriceModel::duration_only().workload_cost(&out.vm_records);
    assert!(usd > 0.0);
}
