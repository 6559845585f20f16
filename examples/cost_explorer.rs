//! Cost explorer: which OS scheduler should a FaaS provider deploy?
//!
//! Replays the same Azure-like workload (scaled so the run stays fast)
//! under every scheduler in the repository and prints the cost / p99
//! latency frontier of the paper's Fig. 23 — plus the Fig. 1/20 memory
//! sweep for the winner vs CFS.
//!
//! ```sh
//! cargo run --release --example cost_explorer
//! ```

use serverless_hybrid_sched::prelude::*;

/// The paper's enclave, scaled 1/10: 5 cores, ~1,244 invocations keeps
/// the 1.8x overload of the full W2 workload.
const CORES: usize = 5;

fn run_records(trace: &AzureTrace, policy: impl Scheduler) -> Vec<TaskRecord> {
    let report = Simulation::new(MachineConfig::new(CORES), trace.to_task_specs(), policy)
        .run_slim()
        .expect("simulation completes");
    records_from_tasks(&report.tasks)
}

fn main() {
    let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(10));
    let model = PriceModel::duration_only();
    println!("{} invocations on {CORES} cores\n", trace.len());
    println!(
        "{:<14}{:>12}{:>18}",
        "scheduler", "cost_usd", "p99_response_s"
    );

    let hybrid_cfg = HybridConfig::split(3, 2);
    let rows: Vec<(&str, Vec<TaskRecord>)> = vec![
        ("fifo", run_records(&trace, Fifo::new())),
        ("cfs", run_records(&trace, Cfs::with_cores(CORES))),
        (
            "fifo+100ms",
            run_records(&trace, Fifo::with_limit(SimDuration::from_millis(100))),
        ),
        (
            "round-robin",
            run_records(&trace, Fifo::round_robin(SimDuration::from_millis(10))),
        ),
        ("edf", run_records(&trace, Edf::new())),
        (
            "shinjuku",
            run_records(&trace, Fifo::shinjuku(SimDuration::from_millis(1))),
        ),
        (
            "hybrid",
            run_records(&trace, HybridScheduler::new(hybrid_cfg)),
        ),
    ];

    let mut cheapest = ("", f64::INFINITY);
    for (name, records) in &rows {
        let cost = model.workload_cost(records);
        let p99 = RunSummary::compute(records).response.p99;
        println!("{name:<14}{cost:>12.4}{:>18.2}", p99.as_secs_f64());
        if cost < cheapest.1 {
            cheapest = (name, cost);
        }
    }
    println!("\ncheapest scheduler: {} (${:.4})", cheapest.0, cheapest.1);

    // The Fig. 1/20-style sweep: what the bill would be if every function
    // had the same memory size.
    let hybrid = &rows.last().unwrap().1;
    let cfs = &rows[1].1;
    println!("\nmem_mib      hybrid_usd       cfs_usd");
    for ((mem, h), (_, c)) in model
        .memory_sweep(hybrid)
        .iter()
        .zip(model.memory_sweep(cfs))
    {
        println!("{mem:<10}{h:>12.4}{c:>14.4}");
    }
}
