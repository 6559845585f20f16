//! Offer-rule differential over every in-tree policy.
//!
//! `MachineRun` offers idle cores only while a task waits, stops the
//! moment none does, and offers only the cores in the policy's offer
//! mask, which makes an event's cost independent of how many cores sit
//! idle. That is only sound because every in-tree policy leaves its state
//! untouched when offered a core with nothing waiting, and because a
//! policy that narrows the mask (the hybrid) leaves out only cores whose
//! offer would change nothing. This suite pins the claim: for every
//! policy, at 1 to 130 cores, with host interference, off-CPU waits,
//! deadlines and placement hints, the kernel message log and every task
//! record equal those of the brute-force driver that offers every idle
//! core after every event. Machines above 64 cores run the multi-word
//! mask and scan, and there the armed hybrid's rightsizing moves cores
//! across the 64-core word boundary. Along the way the suite checks the
//! kernel's waiting count against a brute-force count after every event.
//!
//! The same cases pin the kernel's lone-slice renewals: the hybrid lets
//! the kernel renew a slice that expires alone on a CFS core, and a run
//! where it does must equal, record for record, a run where a wrapper
//! withdraws every published core, so each renewal goes through the
//! policy.

#[path = "../crates/kernel/tests/support/brute_force.rs"]
mod brute_force;

use faas_kernel::{
    CoreId, CostModel, InterferenceConfig, KernelMessage, Machine, MachineConfig, PlacementHint,
    Scheduler, Simulation, TaskId, TaskSpec, TaskState,
};
use faas_policies::{Cfs, Edf, Fifo, Mlfq, MlfqParams, Sfs};
use std::cell::Cell;

use faas_simcore::check::{self, Gen};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{
    CfsPlacement, HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy,
};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

struct Case {
    cores: usize,
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
}

fn arb_case(g: &mut Gen) -> Case {
    let cores = match g.u64_in(0, 4) {
        0 => g.usize_in(1, 5),
        1 => g.usize_in(5, 50),
        2 => 50,
        _ => g.usize_in(65, 131),
    };
    let n = g.usize_in(1, 2 * cores + 40);
    let span_ms = g.u64_in(1, 3_000);
    let specs = (0..n)
        .map(|_| {
            let arrival = SimTime::from_millis(g.u64_in(0, span_ms));
            let work = if g.u64_in(0, 5) == 0 {
                ms(g.u64_in(300, 3_000))
            } else {
                ms(g.u64_in(1, 80))
            };
            let mut spec = TaskSpec::function(arrival, work, 128);
            if g.boolean() {
                spec = spec.with_expected(work);
            }
            if g.u64_in(0, 5) == 0 {
                spec = spec.with_io_wait(ms(g.u64_in(1, 300)));
            }
            if g.u64_in(0, 5) == 0 {
                spec = spec.with_deadline(arrival + ms(g.u64_in(20, 2_000)));
            }
            if g.u64_in(0, 5) == 0 {
                spec = spec.with_hint(PlacementHint::Background);
            }
            spec
        })
        .collect();
    let cost = if g.boolean() {
        CostModel::default()
    } else {
        CostModel::free()
    };
    let mut cfg = MachineConfig::new(cores).with_cost(cost).with_message_log();
    if g.boolean() {
        cfg = cfg
            .with_interference(InterferenceConfig {
                mean_interval: ms(g.u64_in(20, 400)),
                duration: ms(g.u64_in(1, 10)),
            })
            .with_seed(g.u64_in(0, u64::MAX));
    }
    Case { cores, cfg, specs }
}

/// The paper's half/half core split (exactly `paper_25_25` at 50 cores).
fn paper_split(cores: usize) -> HybridConfig {
    if cores == 50 {
        HybridConfig::paper_25_25()
    } else {
        HybridConfig::split(cores / 2, cores - cores / 2)
    }
}

/// Every optional mechanism armed, on the paper split up to 64 cores.
/// Above that the FIFO group ends two cores past the 64-core word
/// boundary, so rightsizing's FIFO→CFS moves, which take the highest FIFO
/// core first, carry cores across it and leave both groups spanning it.
fn armed_hybrid(cores: usize) -> HybridConfig {
    let split = if cores > 64 {
        let fifo = (cores - 1).min(66);
        HybridConfig::split(fifo, cores - fifo)
    } else {
        paper_split(cores)
    };
    split
        .with_time_limit(TimeLimitPolicy::Adaptive {
            percentile: 0.9,
            initial: ms(50),
        })
        .with_rightsizing(RightsizingConfig {
            window: ms(300),
            threshold: 0.1,
            cooldown: ms(100),
            min_cores: 1,
        })
        .with_cfs_placement(CfsPlacement::LeastLoaded)
        .with_hint_routing()
}

/// Runs `case` under the kernel driver, checking the waiting count after
/// every event, and under the brute-force driver, then compares the two
/// machines. Returns the driven run, for its policy's state.
fn assert_equivalent<P: Scheduler>(case: &Case, make: impl Fn() -> P) -> Simulation<P> {
    let total = case.specs.len();
    let mut sim = Simulation::new(case.cfg.clone(), case.specs.clone(), make());
    let name = sim.policy().name().to_owned();
    let mut arrived = vec![false; total];
    let mut seen = 0;
    loop {
        let more = sim
            .step()
            .unwrap_or_else(|e| panic!("{name} at {} cores: {e}", case.cores));
        let m = sim.machine();
        for (_, msg) in &m.messages()[seen..] {
            if let KernelMessage::TaskNew { task } = msg {
                arrived[task.index()] = true;
            }
        }
        seen = m.messages().len();
        let waiting = (0..total)
            .filter(|&i| {
                arrived[i]
                    && matches!(
                        m.task(TaskId::from_index(i)).state(),
                        TaskState::Queued | TaskState::Preempted
                    )
            })
            .count();
        assert_eq!(
            m.num_waiting(),
            waiting,
            "{name}: waiting count at {}",
            m.now()
        );
        if !more {
            break;
        }
    }
    let driven = sim.machine();
    let brute = brute_force::run_brute_force(case.cfg.clone(), case.specs.clone(), &mut make());
    assert_eq!(
        driven.messages(),
        brute.messages(),
        "{name} at {} cores: kernel message logs diverged",
        case.cores
    );
    assert_eq!(driven.now(), brute.now(), "{name}: finish instant");
    assert_eq!(
        driven.events_processed(),
        brute.events_processed(),
        "{name}: event count"
    );
    for i in 0..total {
        let id = TaskId::from_index(i);
        let (a, b) = (driven.task(id), brute.task(id));
        assert_eq!(a.state(), b.state(), "{name}: task {id} state");
        assert_eq!(a.first_run(), b.first_run(), "{name}: task {id} first run");
        assert_eq!(
            a.completion(),
            b.completion(),
            "{name}: task {id} completion"
        );
        assert_eq!(a.cpu_time(), b.cpu_time(), "{name}: task {id} cpu time");
        assert_eq!(
            a.preemptions(),
            b.preemptions(),
            "{name}: task {id} preemptions"
        );
    }
    for c in (0..case.cores).map(CoreId::from_index) {
        assert_eq!(
            driven.core_stats(c),
            brute.core_stats(c),
            "{name}: core {c}"
        );
    }
    sim
}

#[test]
fn offer_rule_matches_brute_force_driver_for_every_policy() {
    // Rightsizing moves of a core at or above 64 on machines past one
    // mask word, across all cases.
    let high_moves = Cell::new(0);
    check::run("offer_rule_matches_brute_force_driver", 24, |g| {
        let case = arb_case(g);
        let cores = case.cores;
        assert_equivalent(&case, Fifo::new);
        assert_equivalent(&case, || Fifo::with_limit(ms(40)));
        assert_equivalent(&case, || Cfs::with_cores(cores));
        assert_equivalent(&case, || Fifo::round_robin(ms(10)));
        assert_equivalent(&case, Edf::new);
        assert_equivalent(&case, || Mlfq::new(MlfqParams::default()));
        assert_equivalent(&case, || Sfs::new(ms(5)));
        assert_equivalent(&case, || Fifo::shinjuku(ms(2)));
        if cores >= 2 {
            assert_equivalent(&case, || HybridScheduler::new(paper_split(cores)));
            let armed = assert_equivalent(&case, || HybridScheduler::new(armed_hybrid(cores)));
            let moves = armed.policy().migrations().iter();
            high_moves.set(high_moves.get() + moves.filter(|r| r.core.index() >= 64).count());
        }
    });
    assert!(
        high_moves.get() > 0,
        "no case moved a core across the 64-core word boundary"
    );
}

/// `P` with every slice expiry delivered to it: forwards every
/// `Scheduler` method, then withdraws the cores `P` published for kernel
/// renewal, so the kernel never renews a slice.
struct PolicyRenewal<P>(P);

impl<P> PolicyRenewal<P> {
    fn withdraw(m: &mut Machine) {
        m.lone_slices_mut().cores.clear();
    }
}

impl<P: Scheduler> Scheduler for PolicyRenewal<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.0.tick_interval()
    }

    fn utilization_window(&self) -> SimDuration {
        self.0.utilization_window()
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        self.0.on_task_new(m, task);
        Self::withdraw(m);
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.0.on_slice_expired(m, task, core);
        Self::withdraw(m);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        self.0.on_core_idle(m, core);
        Self::withdraw(m);
    }

    fn on_task_finished(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.0.on_task_finished(m, task, core);
        Self::withdraw(m);
    }

    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.0.on_interference_preempt(m, task, core);
        Self::withdraw(m);
    }

    fn on_tick(&mut self, m: &mut Machine) {
        self.0.on_tick(m);
        Self::withdraw(m);
    }
}

/// Runs `case` to the end under `policy` with the offer-counting driver,
/// returning the run and how many of its kernel renewals were on a core
/// at or above 64.
fn run_case<P: Scheduler>(case: &Case, policy: P) -> (Simulation<P>, u64) {
    let mut sim = Simulation::new(case.cfg.clone(), case.specs.clone(), policy);
    let mut high = 0;
    loop {
        let renewals = sim.renewals();
        let more = sim
            .step()
            .unwrap_or_else(|e| panic!("at {} cores: {e}", case.cores));
        if sim.renewals() > renewals {
            // A renewal logs its dispatch last.
            match sim.machine().messages().last() {
                Some((_, KernelMessage::Dispatch { core, .. })) => {
                    high += u64::from(core.index() >= 64);
                }
                other => panic!("a kernel renewal ended with {other:?}"),
            }
        }
        if !more {
            return (sim, high);
        }
    }
}

/// Asserts that the kernel-renewing run `a` and the policy-renewing run
/// `b` are the same run: messages, event count, finish instant, every
/// task record, the core stats, every utilization bucket and the offer
/// counts.
fn assert_same_run<P: Scheduler, Q: Scheduler>(
    name: &str,
    case: &Case,
    a: &Simulation<P>,
    b: &Simulation<Q>,
) {
    let (ma, mb) = (a.machine(), b.machine());
    assert_eq!(ma.messages(), mb.messages(), "{name}: message logs");
    assert_eq!(
        ma.events_processed(),
        mb.events_processed(),
        "{name}: events"
    );
    assert_eq!(ma.now(), mb.now(), "{name}: finish instant");
    for i in 0..case.specs.len() {
        let id = TaskId::from_index(i);
        let (x, y) = (ma.task(id), mb.task(id));
        assert_eq!(
            (x.state(), x.first_run(), x.completion()),
            (y.state(), y.first_run(), y.completion()),
            "{name}: task {id}"
        );
        assert_eq!(
            (x.cpu_time(), x.remaining(), x.preemptions()),
            (y.cpu_time(), y.remaining(), y.preemptions()),
            "{name}: task {id} progress"
        );
    }
    assert_eq!(a.core_stats(), b.core_stats(), "{name}: core stats");
    let (ua, ub) = (ma.utilization(), mb.utilization());
    assert_eq!(ua.bucket_count(), ub.bucket_count(), "{name}: buckets");
    for core in 0..case.cores {
        for bucket in 0..ua.bucket_count() {
            assert_eq!(
                ua.bucket_utilization(core, bucket).to_bits(),
                ub.bucket_utilization(core, bucket).to_bits(),
                "{name}: core {core} bucket {bucket}"
            );
        }
    }
    assert_eq!(
        (a.offers(), a.declined_offers()),
        (b.offers(), b.declined_offers()),
        "{name}: offers"
    );
}

#[test]
fn kernel_renewal_matches_policy_renewal() {
    // Hybrid runs that renewed a slice in the kernel, of all hybrid runs,
    // and renewals seen on a core at or above 64.
    let (renewing, runs, high) = (Cell::new(0), Cell::new(0), Cell::new(0));
    check::run("kernel_renewal_matches_policy_renewal", 24, |g| {
        let case = arb_case(g);
        let cores = case.cores;
        if cores < 2 {
            return;
        }
        for (name, cfg) in [
            ("paper split", paper_split as fn(usize) -> HybridConfig),
            ("armed hybrid", armed_hybrid),
        ] {
            let (kernel, kernel_high) = run_case(&case, HybridScheduler::new(cfg(cores)));
            let (policy, _) = run_case(&case, PolicyRenewal(HybridScheduler::new(cfg(cores))));
            assert_eq!(
                policy.renewals(),
                0,
                "{name}: the wrapper renewed in the kernel"
            );
            assert_same_run(name, &case, &kernel, &policy);
            runs.set(runs.get() + 1);
            renewing.set(renewing.get() + u64::from(kernel.renewals() > 0));
            high.set(high.get() + kernel_high);
        }
    });
    assert!(
        2 * renewing.get() > runs.get(),
        "only {} of {} hybrid runs renewed a slice in the kernel",
        renewing.get(),
        runs.get()
    );
    assert!(high.get() > 0, "no kernel renewal on a core at or above 64");
}
