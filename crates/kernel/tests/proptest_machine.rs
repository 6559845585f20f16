//! Property tests of the kernel substrate under an adversarial agent: a
//! chaos policy that dispatches arbitrary runnable tasks with arbitrary
//! slices and preempts cores at random. Whatever the agent does, the
//! kernel's accounting must stay consistent and all work must eventually
//! complete.

use faas_kernel::{
    CoreId, CoreState, CostModel, InterferenceConfig, KernelMessage, Machine, MachineConfig,
    Scheduler, Simulation, TaskId, TaskSpec, TaskState,
};
use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};

use faas_simcore::SimDuration as Dur;

#[path = "support/brute_force.rs"]
mod brute_force;

/// A deterministic chaos agent driven by an LCG.
struct Chaos {
    runnable: Vec<TaskId>,
    state: u64,
    preempt_bias: bool,
}

impl Chaos {
    fn new(seed: u64, preempt_bias: bool) -> Self {
        Chaos {
            runnable: Vec::new(),
            state: seed | 1,
            preempt_bias,
        }
    }
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }
}

impl Scheduler for Chaos {
    fn name(&self) -> &str {
        "chaos"
    }
    fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
        self.runnable.push(task);
    }
    fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
        self.runnable.push(task);
    }
    fn on_task_finished(&mut self, m: &mut Machine, _task: TaskId, _core: CoreId) {
        // Occasionally preempt some other running core for no reason.
        if self.preempt_bias && self.next().is_multiple_of(3) {
            let cores = m.num_cores();
            let victim = CoreId::from_index((self.next() as usize) % cores);
            if matches!(m.core_state(victim), CoreState::Running(_)) {
                let t = m.preempt(victim).expect("victim was running");
                self.runnable.push(t);
            }
        }
    }
    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        if self.runnable.is_empty() {
            return;
        }
        let idx = (self.next() as usize) % self.runnable.len();
        let task = self.runnable.swap_remove(idx);
        // Random slice: sometimes none, sometimes tiny, sometimes large.
        let slice = match self.next() % 4 {
            0 => None,
            1 => Some(Dur::from_micros(1 + self.next() % 500)),
            2 => Some(Dur::from_millis(1 + self.next() % 20)),
            _ => Some(Dur::from_secs(10)),
        };
        m.dispatch(core, task, slice)
            .expect("dispatch on idle core");
    }
}

fn arb_specs(g: &mut Gen) -> Vec<TaskSpec> {
    let n = g.usize_in(1, 40);
    (0..n)
        .map(|_| {
            let arr = g.u64_in(0, 2_000);
            let work = g.u64_in(1, 500);
            TaskSpec::function(
                SimTime::from_millis(arr),
                SimDuration::from_millis(work),
                128,
            )
        })
        .collect()
}

/// Whatever the chaos agent does, accounting stays consistent.
#[test]
fn kernel_accounting_survives_chaos() {
    check::run("kernel_accounting_survives_chaos", 64, |g| {
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let cores = g.usize_in(1, 5);
        let preempt_bias = g.boolean();
        let cfg = MachineConfig::new(cores)
            .with_cost(CostModel::from_micros(3, 50))
            .with_message_log();
        let total = specs.len();
        let works: Vec<SimDuration> = specs.iter().map(|s| s.work).collect();
        let report = Simulation::new(cfg, specs, Chaos::new(seed, preempt_bias))
            .run_slim()
            .expect("chaos must not deadlock the kernel");
        assert_eq!(report.tasks.len(), total);
        for (task, work) in report.tasks.iter().zip(&works) {
            assert!(task.completion().is_some());
            // A task consumes at least its nominal work; preemptions only add.
            assert!(task.cpu_time() >= *work);
            let exec = task.execution_time().unwrap();
            assert!(
                exec + SimDuration::from_micros(1) >= task.cpu_time() - (task.cpu_time() - *work),
                "execution wall-clock below pure work"
            );
        }
        // Busy time is bounded by capacity.
        let busy: SimDuration = report.core_stats.iter().map(|s| s.busy).sum();
        let cap = SimDuration::from_micros(report.finished_at.as_micros() * cores as u64);
        assert!(busy <= cap + SimDuration::from_micros(1));
    });
}

/// The kernel message protocol is well-formed under chaos: one
/// TaskNew and one TaskDead per task, dispatches between them.
#[test]
fn message_protocol_is_well_formed() {
    check::run("message_protocol_is_well_formed", 64, |g| {
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let cfg = MachineConfig::new(2).with_message_log();
        let total = specs.len();
        let report = Simulation::new(cfg, specs, Chaos::new(seed, true))
            .run_slim()
            .expect("completes");
        let log = &report.messages;
        let mut news = vec![0u32; total];
        let mut deads = vec![0u32; total];
        let mut dispatches = vec![0u32; total];
        for (_, msg) in log {
            match msg {
                KernelMessage::TaskNew { task } => news[task.index()] += 1,
                KernelMessage::TaskDead { task, .. } => deads[task.index()] += 1,
                KernelMessage::Dispatch { task, .. } => dispatches[task.index()] += 1,
                _ => {}
            }
        }
        for i in 0..total {
            assert_eq!(news[i], 1, "exactly one TaskNew");
            assert_eq!(deads[i], 1, "exactly one TaskDead");
            assert!(dispatches[i] >= 1, "ran at least once");
        }
        // Per task: TaskNew precedes first Dispatch precedes TaskDead.
        for i in 0..total {
            let tid = |m: &KernelMessage| m.task().map(|t| t.index() == i).unwrap_or(false);
            let first_new = log
                .iter()
                .position(|(_, m)| matches!(m, KernelMessage::TaskNew { .. }) && tid(m))
                .unwrap();
            let first_dispatch = log
                .iter()
                .position(|(_, m)| matches!(m, KernelMessage::Dispatch { .. }) && tid(m))
                .unwrap();
            let dead = log
                .iter()
                .position(|(_, m)| matches!(m, KernelMessage::TaskDead { .. }) && tid(m))
                .unwrap();
            assert!(first_new < first_dispatch);
            assert!(first_dispatch < dead);
        }
    });
}

/// The incrementally maintained idle-core set always equals the
/// brute-force scan over core states, the task→core back-pointer
/// (`core_of` / `observed_runtime`) always matches a brute-force search,
/// and the waiting count (`num_waiting`) always equals a count of arrived
/// `Queued`/`Preempted` tasks, across randomized dispatch/preempt/finish/
/// interference sequences with off-CPU waits and deadline cancellations.
#[test]
fn incremental_idle_set_matches_brute_force() {
    check::run("incremental_idle_set_matches_brute_force", 48, |g| {
        let specs: Vec<TaskSpec> = arb_specs(g)
            .into_iter()
            .map(|s| match g.u64_in(0, 6) {
                0 => s.with_io_wait(SimDuration::from_millis(g.u64_in(1, 300))),
                1 => {
                    let deadline = s.arrival + SimDuration::from_millis(g.u64_in(0, 800));
                    s.with_deadline(deadline)
                }
                _ => s,
            })
            .collect();
        let cores = g.usize_in(1, 6);
        let with_interference = g.boolean();
        let seed = g.u64_in(0, u64::MAX);
        let mut cfg = MachineConfig::new(cores).with_cost(CostModel::from_micros(3, 50));
        if with_interference {
            cfg = cfg
                .with_interference(InterferenceConfig {
                    mean_interval: SimDuration::from_millis(40),
                    duration: SimDuration::from_millis(5),
                })
                .with_seed(seed);
        }
        let total = specs.len();
        let mut m = Machine::new(cfg, specs);
        let mut lcg = seed | 1;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut runnable: Vec<TaskId> = Vec::new();
        let mut arrived = vec![false; total];
        let check_invariants = |m: &Machine, arrived: &[bool]| {
            // Waiting count == arrived tasks a policy could dispatch.
            let waiting = (0..total)
                .filter(|&i| {
                    arrived[i]
                        && matches!(
                            m.task(TaskId::from_index(i)).state(),
                            TaskState::Queued | TaskState::Preempted
                        )
                })
                .count();
            assert_eq!(m.num_waiting(), waiting, "waiting count diverged from scan");
            // Idle set == brute-force scan, same order.
            let incremental: Vec<CoreId> = m.idle_cores().collect();
            let brute: Vec<CoreId> = (0..m.num_cores())
                .map(CoreId::from_index)
                .filter(|c| m.core_state(*c) == CoreState::Idle)
                .collect();
            assert_eq!(incremental, brute, "idle set diverged from scan");
            assert_eq!(m.num_idle_cores(), brute.len());
            // Back-pointer == brute-force search, both directions.
            for c in (0..m.num_cores()).map(CoreId::from_index) {
                match m.core_state(c) {
                    CoreState::Running(t) => {
                        assert_eq!(m.core_of(t), Some(c), "missing back-pointer");
                        assert_eq!(m.task(t).running_core(), Some(c));
                    }
                    _ => assert!(
                        (0..m.num_tasks()).all(|i| m.core_of(TaskId::from_index(i)) != Some(c)),
                        "stale back-pointer onto non-running core {c}"
                    ),
                }
            }
            // observed_runtime == the pre-backpointer O(cores) definition.
            for i in 0..m.num_tasks() {
                let id = TaskId::from_index(i);
                let brute_extra = (0..m.num_cores())
                    .map(CoreId::from_index)
                    .find_map(|c| match m.running_on(c) {
                        Some((t, ran)) if t == id => Some(ran),
                        _ => None,
                    })
                    .unwrap_or(SimDuration::ZERO);
                assert_eq!(m.observed_runtime(id), m.task(id).cpu_time() + brute_extra);
            }
        };
        let mut finished = 0usize;
        let mut safety = 0u32;
        while finished < total {
            safety += 1;
            assert!(safety < 200_000, "runaway property case");
            match m.advance().expect("no deadlock: we always dispatch") {
                None => break,
                Some(call) => {
                    match call {
                        faas_kernel::PolicyCall::TaskNew(t) => {
                            arrived[t.index()] = true;
                            runnable.push(t);
                        }
                        faas_kernel::PolicyCall::SliceExpired(t, _)
                        | faas_kernel::PolicyCall::InterferencePreempt(t, _) => runnable.push(t),
                        faas_kernel::PolicyCall::TaskFinished(..) => finished += 1,
                        _ => {}
                    }
                    check_invariants(&m, &arrived);
                    // Randomly preempt a running core.
                    if next().is_multiple_of(7) {
                        let victim = CoreId::from_index((next() as usize) % m.num_cores());
                        if matches!(m.core_state(victim), CoreState::Running(_)) {
                            let t = m.preempt(victim).expect("victim was running");
                            runnable.push(t);
                            check_invariants(&m, &arrived);
                        }
                    }
                    // Fill idle cores with random runnable tasks.
                    let idle: Vec<CoreId> = m.idle_cores().collect();
                    for core in idle {
                        if runnable.is_empty() {
                            break;
                        }
                        let idx = (next() as usize) % runnable.len();
                        let task = runnable.swap_remove(idx);
                        let slice = match next() % 3 {
                            0 => None,
                            1 => Some(SimDuration::from_micros(1 + next() % 900)),
                            _ => Some(SimDuration::from_millis(1 + next() % 30)),
                        };
                        m.dispatch(core, task, slice).expect("idle core dispatch");
                        check_invariants(&m, &arrived);
                    }
                }
            }
        }
    });
}

/// The offer rule of `Simulation::step` (idle cores are offered only
/// while a task waits, and offers stop once none does) is observationally
/// equivalent to the brute-force driver that offers every idle core in id
/// order after every event.
#[test]
fn offer_rule_equals_brute_force_driver() {
    check::run("offer_rule_equals_brute_force_driver", 48, |g| {
        let specs = arb_specs(g);
        let cores = g.usize_in(1, 5);
        let seed = g.u64_in(0, u64::MAX);
        let preempt_bias = g.boolean();
        let with_interference = g.boolean();
        let make_cfg = || {
            let mut cfg = MachineConfig::new(cores)
                .with_cost(CostModel::from_micros(3, 50))
                .with_message_log();
            if with_interference {
                cfg = cfg
                    .with_interference(InterferenceConfig {
                        mean_interval: SimDuration::from_millis(60),
                        duration: SimDuration::from_millis(8),
                    })
                    .with_seed(seed ^ 0x1234);
            }
            cfg
        };
        // Chaos is deterministic given its seed, so both drivers see the
        // same policy; any divergence comes from the offer rule.
        let driven = Simulation::new(make_cfg(), specs.clone(), Chaos::new(seed, preempt_bias))
            .run_slim()
            .expect("driver completes");
        let brute =
            brute_force::run_brute_force(make_cfg(), specs, &mut Chaos::new(seed, preempt_bias));
        assert_eq!(
            driven.messages,
            brute.messages(),
            "kernel message streams diverged"
        );
        assert_eq!(driven.finished_at, brute.now());
        assert_eq!(driven.tasks.len(), brute.num_tasks());
        for (i, a) in driven.tasks.iter().enumerate() {
            let id = TaskId::from_index(i);
            let b = brute.task(id);
            assert_eq!(a.completion(), b.completion(), "task {id} completion");
            assert_eq!(a.cpu_time(), b.cpu_time(), "task {id} cpu time");
            assert_eq!(a.preemptions(), b.preemptions(), "task {id} preemptions");
        }
    });
}

/// Interference storms never corrupt accounting or strand tasks.
#[test]
fn interference_storm_is_survivable() {
    check::run("interference_storm_is_survivable", 64, |g| {
        let specs = arb_specs(g);
        let seed = g.u64_in(0, u64::MAX);
        let storm = InterferenceConfig {
            mean_interval: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(10),
        };
        let cfg = MachineConfig::new(2)
            .with_interference(storm)
            .with_seed(seed);
        let total = specs.len();
        let report = Simulation::new(cfg, specs, Chaos::new(seed ^ 0xABCD, false))
            .run_slim()
            .expect("completes");
        assert_eq!(
            report
                .tasks
                .iter()
                .filter(|t| t.completion().is_some())
                .count(),
            total
        );
    });
}
