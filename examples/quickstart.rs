//! Quickstart: schedule two minutes of Azure-like serverless load with the
//! paper's hybrid FIFO+CFS scheduler and see what it costs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use serverless_hybrid_sched::prelude::*;

fn main() {
    // 1. Synthesize the workload: the paper's W2 trace (12,442 function
    //    invocations in two minutes), downscaled 10x so the example runs
    //    in well under a second.
    let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(10));
    println!("workload: {} invocations over ~2 minutes", trace.len());

    // 2. Configure the scheduler: 5 FIFO cores + 5 CFS cores (the paper's
    //    50/50 split scaled to the workload), 1,633 ms preemption limit.
    let cfg = HybridConfig::split(5, 5);
    println!(
        "scheduler: {} FIFO cores + {} CFS cores, limit = 1,633 ms",
        cfg.fifo_cores, cfg.cfs_cores
    );

    // 3. Run the simulation.
    let machine = MachineConfig::new(cfg.total_cores());
    let report = Simulation::new(machine, trace.to_task_specs(), HybridScheduler::new(cfg))
        .run_slim()
        .expect("simulation completes");

    // 4. Inspect the paper's three metrics and the bill.
    let records = records_from_tasks(&report.tasks);
    let summary = RunSummary::compute(&records);
    println!(
        "p99: response {:.2}s | execution {:.2}s | turnaround {:.2}s",
        summary.response.p99.as_secs_f64(),
        summary.execution.p99.as_secs_f64(),
        summary.turnaround.p99.as_secs_f64()
    );
    let usd = PriceModel::duration_only().workload_cost(&records);
    println!("AWS-Lambda-priced cost of the run: ${usd:.4}");
    println!(
        "total preemptions across all cores: {}",
        report.total_preemptions()
    );
}
