//! Property-based tests: scheduling invariants that must hold for every
//! policy on arbitrary workloads.

use serverless_hybrid_sched::prelude::*;
use serverless_hybrid_sched::simcore::check::{self, Gen};

#[derive(Debug, Clone)]
struct Wl {
    specs: Vec<TaskSpec>,
    cores: usize,
}

fn workload(g: &mut Gen) -> Wl {
    let cores = g.usize_in(1, 5);
    let n = g.usize_in(1, 60);
    let mems = [128u32, 256, 1024];
    let specs = (0..n)
        .map(|_| {
            let arr_ms = g.u64_in(0, 5_000);
            let work_ms = g.u64_in(1, 2_000);
            let mem = mems[g.usize_in(0, mems.len())];
            TaskSpec::function(
                SimTime::from_millis(arr_ms),
                SimDuration::from_millis(work_ms),
                mem,
            )
            .with_expected(SimDuration::from_millis(work_ms))
        })
        .collect();
    Wl { cores, specs }
}

fn policies(cores: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fifo::new()),
        Box::new(Cfs::with_cores(cores)),
        Box::new(Fifo::with_limit(SimDuration::from_millis(50))),
        Box::new(Fifo::round_robin(SimDuration::from_millis(20))),
        Box::new(Edf::new()),
        Box::new(Fifo::shinjuku(SimDuration::from_millis(5))),
    ]
}

/// Boxed schedulers still need the trait implemented for Box<dyn ...>.
struct Boxed(Box<dyn Scheduler>);
impl Scheduler for Boxed {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn tick_interval(&self) -> Option<SimDuration> {
        self.0.tick_interval()
    }
    fn on_task_new(&mut self, m: &mut Machine, t: serverless_hybrid_sched::kernel::TaskId) {
        self.0.on_task_new(m, t)
    }
    fn on_slice_expired(
        &mut self,
        m: &mut Machine,
        t: serverless_hybrid_sched::kernel::TaskId,
        c: serverless_hybrid_sched::kernel::CoreId,
    ) {
        self.0.on_slice_expired(m, t, c)
    }
    fn on_task_finished(
        &mut self,
        m: &mut Machine,
        t: serverless_hybrid_sched::kernel::TaskId,
        c: serverless_hybrid_sched::kernel::CoreId,
    ) {
        self.0.on_task_finished(m, t, c)
    }
    fn on_interference_preempt(
        &mut self,
        m: &mut Machine,
        t: serverless_hybrid_sched::kernel::TaskId,
        c: serverless_hybrid_sched::kernel::CoreId,
    ) {
        self.0.on_interference_preempt(m, t, c)
    }
    fn on_core_idle(&mut self, m: &mut Machine, c: serverless_hybrid_sched::kernel::CoreId) {
        self.0.on_core_idle(m, c)
    }
    fn on_tick(&mut self, m: &mut Machine) {
        self.0.on_tick(m)
    }
}

fn check_invariants(wl: &Wl, policy: Boxed) {
    let name = policy.name().to_owned();
    let cfg = MachineConfig::new(wl.cores);
    let report = Simulation::new(cfg, wl.specs.clone(), policy)
        .run_slim()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut by_completion: Vec<(SimTime, SimTime)> = Vec::new();
    for (task, spec) in report.tasks.iter().zip(&wl.specs) {
        // Everything completes.
        let completion = task
            .completion()
            .unwrap_or_else(|| panic!("{name}: stranded"));
        let first = task.first_run().expect("completed task ran");
        // Causality.
        assert!(first >= spec.arrival, "{name}: ran before arrival");
        assert!(completion >= first, "{name}: completed before first run");
        // Work conservation: a task consumes at least its work, and its
        // wall-clock execution bounds its CPU time.
        assert!(
            task.cpu_time() >= spec.work,
            "{name}: finished with missing work"
        );
        assert!(
            completion - first >= task.cpu_time() - spec.work
                || task.cpu_time() <= completion - first + SimDuration::from_micros(1),
            "{name}: cpu time exceeds wall-clock execution"
        );
        by_completion.push((first, completion));
    }
    // Metric identity: turnaround = response + execution.
    for r in records_from_tasks(&report.tasks) {
        assert_eq!(
            r.turnaround_time(),
            r.response_time() + r.execution_time(),
            "{name}: metric identity broken"
        );
    }
    // Total busy time never exceeds cores x makespan.
    let busy: SimDuration = report.core_stats.iter().map(|s| s.busy).sum();
    let bound = SimDuration::from_micros(report.finished_at.as_micros() * wl.cores as u64 + 1);
    assert!(
        busy <= bound,
        "{name}: busy {busy} exceeds capacity {bound}"
    );
}

#[test]
fn every_policy_upholds_invariants() {
    check::run("every_policy_upholds_invariants", 48, |g| {
        let wl = workload(g);
        for p in policies(wl.cores) {
            check_invariants(&wl, Boxed(p));
        }
    });
}

#[test]
fn hybrid_upholds_invariants() {
    check::run("hybrid_upholds_invariants", 48, |g| {
        let wl = workload(g);
        // The hybrid scheduler needs at least two cores (one per group).
        let cores = wl.cores.max(2);
        let wl = Wl {
            cores,
            specs: wl.specs.clone(),
        };
        let cfg = HybridConfig::split(cores / 2 + cores % 2, cores / 2)
            .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(200)));
        let report = Simulation::new(
            MachineConfig::new(cores),
            wl.specs.clone(),
            HybridScheduler::new(cfg),
        )
        .run_slim()
        .unwrap_or_else(|e| panic!("hybrid: {e}"));
        for (task, spec) in report.tasks.iter().zip(&wl.specs) {
            assert!(task.completion().is_some(), "hybrid stranded a task");
            assert!(task.cpu_time() >= spec.work);
            // Short tasks (under the fixed limit) never get preempted by
            // the policy itself (host interference is off here).
            if spec.work < SimDuration::from_millis(200) {
                assert_eq!(task.preemptions(), 0, "short task was preempted");
            }
        }
    });
}

#[test]
fn rightsizing_migrations_always_follow_fig8_protocol() {
    check::run(
        "rightsizing_migrations_always_follow_fig8_protocol",
        48,
        |g| {
            let wl = workload(g);
            let cores = wl.cores.max(3);
            let cfg = HybridConfig::split(cores - 1, 1).with_rightsizing(RightsizingConfig {
                window: SimDuration::from_millis(300),
                threshold: 0.1,
                cooldown: SimDuration::from_millis(100),
                min_cores: 1,
            });
            let mut sim = Simulation::new(
                MachineConfig::new(cores),
                wl.specs.clone(),
                HybridScheduler::new(cfg),
            );
            loop {
                match sim.step() {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            for m in sim.policy().migrations() {
                assert!(m.follows_protocol(), "protocol violated: {m:?}");
            }
            // Core groups always partition the machine.
            assert_eq!(
                sim.policy().fifo_cores().len() + sim.policy().cfs_cores().len(),
                cores
            );
        },
    );
}

#[test]
fn hybrid_with_rightsizing_upholds_invariants() {
    check::run("hybrid_with_rightsizing_upholds_invariants", 48, |g| {
        let wl = workload(g);
        let cores = wl.cores.max(2);
        let cfg = HybridConfig::split(1, cores - 1).with_rightsizing(RightsizingConfig {
            window: SimDuration::from_millis(500),
            threshold: 0.2,
            cooldown: SimDuration::from_millis(200),
            min_cores: 1,
        });
        let report = Simulation::new(
            MachineConfig::new(cores),
            wl.specs.clone(),
            HybridScheduler::new(cfg),
        )
        .run_slim()
        .unwrap_or_else(|e| panic!("hybrid+rightsizing: {e}"));
        assert!(report.tasks.iter().all(|t| t.completion().is_some()));
    });
}
