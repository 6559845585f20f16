//! # faas-cluster
//!
//! The fleet layer: M simulated machines behind a front-end dispatch
//! tier. The paper measures scheduler choice on **one** 50-core enclave;
//! real FaaS providers run fleets of such machines behind a routing tier,
//! so the cost question becomes three-dimensional — machines × per-node
//! scheduler × dispatch policy. This crate makes that product a
//! first-class simulated object.
//!
//! A cluster run has two deterministic phases:
//!
//! 1. **Front-end dispatch** ([`frontend::FrontEnd`]): the merged arrival
//!    stream is walked in timestamp order; a [`Dispatch`] policy assigns
//!    each invocation to a machine using only front-end-observable state
//!    (outstanding estimates, per-function warmth). The cold-start model
//!    ([`ColdStartConfig`], boot costs from `microvm-sim`'s Firecracker
//!    numbers) charges a boot on every warm miss — for *every* dispatch
//!    policy, so locality-blind routing pays where keep-alive routing
//!    saves.
//! 2. **Machine simulation**: each machine's spec list runs as an
//!    independent [`MachineRun`] (per-machine RNG streams derived with
//!    [`SimRng::stream_seed`]), fanned across worker threads and merged
//!    back **in machine order** — output is byte-identical at any fan
//!    width, and a 1-machine cluster under [`dispatch::Passthrough`]
//!    equals a standalone single-machine [`faas_kernel::Simulation`]
//!    exactly (pinned by differential tests).
//!
//! The per-machine simulations never interact, which is what makes the
//! parallel fan sound; the price is that load-aware dispatch reads the
//! front end's FCFS drain *estimate* rather than per-kernel ground truth
//! — the same information boundary a production router has.
//!
//! For provider-scale fleets the same pipeline runs **streaming**
//! ([`Cluster::run_streaming`]): chunks of the arrival stream (e.g. a
//! [`ClusterTaskStream`] over a lazily synthesized trace) are dispatched
//! incrementally, machines retire finished records into mergeable
//! accumulators as they go, and peak memory is O(in-flight tasks), not
//! O(invocations) — with dispatch decisions and exact statistics
//! identical to [`Cluster::run`] (see `DESIGN.md`, "Streaming cluster
//! runs").
//!
//! ```
//! use azure_trace::{AzureTrace, TraceConfig};
//! use faas_cluster::{dispatch::LeastOutstanding, Cluster, ClusterConfig};
//! use faas_kernel::MachineConfig;
//! use faas_policies::Fifo;
//!
//! let trace = AzureTrace::generate(&TraceConfig::tiny());
//! let tasks = faas_cluster::workload_from_trace(&trace, 1);
//! let cfg = ClusterConfig::new(4, MachineConfig::new(2));
//! let report = Cluster::new(cfg, LeastOutstanding, |_| Fifo::new())
//!     .run(&tasks, 1)
//!     .unwrap();
//! assert_eq!(report.machines.len(), 4);
//! assert_eq!(report.merged_records().len(), trace.len());
//! # Ok::<(), faas_kernel::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
pub mod dispatch;
mod frontend;
mod health;
mod middleware;
mod stream;

pub use chaos::{
    AutoscaleConfig, Autoscaler, BackoffConfig, ChaosConfig, CrashConfig, Fault, FaultEvent,
    FaultPlan, FaultPlanConfig, RetryEntry, ScaleDecision, StormConfig, StraggleConfig,
};
pub use dispatch::{Dispatch, DispatchCtx};
pub use frontend::{Assignment, FoldCounters, FrontEnd};
pub use health::{EjectionConfig, HealthConfig, HedgeConfig};
pub use middleware::{BreakerConfig, OverloadConfig, RateLimitConfig};
pub use stream::{
    chunk_workload, ClusterChunk, ClusterTaskStream, StreamClusterReport, StreamMachineReport,
    StreamOptions,
};

use azure_trace::AzureTrace;
use faas_kernel::{MachineConfig, MachineRun, Scheduler, SimError, SlimReport, TaskSpec};
use faas_metrics::{
    merge_records, records_from_tasks, ChaosStats, ClusterSummary, HealthStats, MachineHealth,
    OverloadStats, TaskRecord,
};
use faas_simcore::{par, SimDuration, SimRng, SimTime};
use microvm_sim::FirecrackerConfig;

/// One invocation as the front end sees it: the kernel spec plus the
/// function identity that drives warmth/locality decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTask {
    /// The kernel task spec (arrival, work, memory, io-wait).
    pub spec: TaskSpec,
    /// Function identity: invocations sharing it can reuse a warm
    /// instance on the same machine within the keep-alive window.
    pub function: u64,
}

/// Cold-start model applied at dispatch time.
///
/// A machine that has not run function `f` within `keep_alive` of
/// estimated instance lifetime pays `boot_work` of extra CPU before the
/// invocation's own work — the microVM boot path of the paper's §VI-E
/// experiment, lifted to the fleet level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdStartConfig {
    /// CPU work of a cold boot, added to the invocation's spec.
    pub boot_work: SimDuration,
    /// How long a function instance stays warm after its estimated
    /// completion.
    pub keep_alive: SimDuration,
}

impl ColdStartConfig {
    /// Firecracker-flavored defaults: `microvm-sim`'s guest boot cost
    /// (~125 ms of CPU) and the Azure study's minutes-long keep-alive
    /// (10 minutes).
    pub fn firecracker() -> Self {
        ColdStartConfig {
            boot_work: FirecrackerConfig::default().boot_cpu,
            keep_alive: SimDuration::from_secs(600),
        }
    }
}

/// Shape of the simulated fleet.
///
/// Each front-end layer has one off-state: the default overload stack
/// admits everything, and the empty fault plan injects nothing. Health
/// stays optional because a fleet without a health config tracks nothing,
/// while [`HealthConfig::default`] keeps per-machine telemetry.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Per-machine template ([`ClusterConfig::machine_config`] derives
    /// each machine's actual config, with an independent RNG stream
    /// seeded from this template's seed).
    pub machine: MachineConfig,
    /// Cold-start model; `None` disables warmth tracking entirely.
    pub cold_start: Option<ColdStartConfig>,
    /// Overload-middleware stack evaluated at dispatch time; the
    /// all-disabled [`OverloadConfig::default`] accepts everything.
    pub overload: OverloadConfig,
    /// Fault-injection layer; a [`ChaosConfig`] carrying an empty
    /// [`FaultPlan`] (the default) injects nothing.
    pub chaos: ChaosConfig,
    /// Elastic-fleet controller; `None` keeps all `machines` active for
    /// the whole run. With `Some`, `machines` becomes the fleet's *maximum*
    /// size and the active prefix grows/shrinks between
    /// `autoscale.min_machines` and `machines`.
    pub autoscale: Option<AutoscaleConfig>,
    /// Node-health feedback loop; `None` tracks nothing, and the passive
    /// [`HealthConfig::default`] adds per-machine telemetry while leaving
    /// every dispatch decision bitwise identical.
    pub health: Option<HealthConfig>,
}

impl ClusterConfig {
    /// A fleet of `machines` copies of `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero.
    pub fn new(machines: usize, machine: MachineConfig) -> Self {
        assert!(machines > 0, "cluster needs at least one machine");
        ClusterConfig {
            machines,
            machine,
            cold_start: None,
            overload: OverloadConfig::default(),
            chaos: ChaosConfig::new(FaultPlan::empty(machines)),
            autoscale: None,
            health: None,
        }
    }

    /// Enables the cold-start model.
    pub fn with_cold_start(mut self, cold: ColdStartConfig) -> Self {
        self.cold_start = Some(cold);
        self
    }

    /// Attaches an overload-middleware stack to the dispatch tier.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Attaches the fault-injection layer.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan was generated for a different fleet size.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        assert_eq!(
            chaos.plan.machines(),
            self.machines,
            "fault plan targets a different fleet size"
        );
        self.chaos = chaos;
        self
    }

    /// Turns the fixed fleet into an elastic one bounded by
    /// `[autoscale.min_machines, self.machines]`.
    ///
    /// # Panics
    ///
    /// Panics (in [`Autoscaler::new`]) if `min_machines` is zero or exceeds
    /// the fleet size.
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Attaches the node-health feedback loop (latency EWMAs, outlier
    /// ejection, hedged requests).
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }

    /// The concrete config of machine `index`: the template with its RNG
    /// seed replaced by the independent stream
    /// [`SimRng::stream_seed`]`(template.seed, index)` — machine 7 of a
    /// 16-machine fleet draws the same interference timings as machine 7
    /// of a 64-machine fleet, and a 1-machine cluster's machine 0 is
    /// constructible standalone for differential comparison.
    pub fn machine_config(&self, index: usize) -> MachineConfig {
        let cfg = self
            .machine
            .clone()
            .with_seed(SimRng::stream_seed(self.machine.seed, index as u64));
        // Storm windows are the one fault that lives inside the kernel (it
        // modulates interference *frequency*); everything else folds at the
        // front end. An empty window list leaves every draw untouched.
        if self.chaos.plan.is_empty() {
            cfg
        } else {
            cfg.with_storms(self.chaos.plan.storm_windows(index))
        }
    }
}

/// Outcome of a whole-cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Dispatch policy name the run used.
    pub dispatch: String,
    /// Per-machine run reports, in machine order.
    pub machines: Vec<SlimReport>,
    /// Per-machine completed-task records, in machine order.
    pub records: Vec<Vec<TaskRecord>>,
    /// Invocations that paid the cold-start boot cost.
    pub cold_starts: u64,
    /// What the overload middleware refused or killed (all-zero without
    /// middleware), `kernel_cancelled` included.
    pub overload: OverloadStats,
    /// Crash/retry/autoscale ledger of the chaos layer (all-zero without
    /// a fault plan or autoscaler).
    pub chaos: ChaosStats,
    /// Ejection/probe/hedge/backoff ledger of the node-health layer
    /// (all-zero without a health config or backoff).
    pub health: HealthStats,
    /// Per-machine health columns in machine order (empty without a
    /// health config).
    pub machine_health: Vec<MachineHealth>,
}

impl ClusterReport {
    /// All task records merged in machine order (see
    /// [`faas_metrics::merge_records`]).
    pub fn merged_records(&self) -> Vec<TaskRecord> {
        merge_records(&self.records)
    }

    /// Merged + per-machine metric summaries, with the overload shed
    /// ledger attached.
    ///
    /// # Panics
    ///
    /// Panics if no machine completed any task.
    pub fn summary(&self) -> ClusterSummary {
        ClusterSummary::compute(&self.records)
            .with_overload(self.overload)
            .with_chaos(self.chaos)
            .with_health(self.health, self.machine_health.clone())
    }

    /// Invocations dispatched to each machine.
    pub fn dispatched(&self) -> Vec<usize> {
        self.machines.iter().map(|m| m.tasks.len()).collect()
    }

    /// Peak in-flight backlog: the largest arrived-minus-finished count
    /// any machine's kernel observed — the bounded-memory axis the
    /// admission layers exist to hold down. Max across machines.
    pub fn max_in_flight(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| m.max_in_flight)
            .max()
            .unwrap_or(0)
    }

    /// Invocations killed mid-flight by kernel deadline cancellation.
    pub fn kernel_cancelled(&self) -> u64 {
        self.overload.kernel_cancelled
    }

    /// The virtual instant the last machine finished.
    pub fn finished_at(&self) -> SimTime {
        self.machines
            .iter()
            .map(|m| m.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// A fleet bound to a dispatch policy and a per-machine scheduler
/// factory.
///
/// `make_policy(i)` builds machine `i`'s fresh scheduler agent — every
/// machine gets its own instance, mirroring one agent process per node.
pub struct Cluster<D, F> {
    cfg: ClusterConfig,
    dispatch: D,
    make_policy: F,
}

impl<D, P, F> Cluster<D, F>
where
    D: Dispatch,
    P: Scheduler + Send,
    F: Fn(usize) -> P + Sync,
{
    /// Binds `cfg` to a dispatch policy and a per-machine scheduler
    /// factory.
    pub fn new(cfg: ClusterConfig, dispatch: D, make_policy: F) -> Self {
        Cluster {
            cfg,
            dispatch,
            make_policy,
        }
    }

    /// Runs the cluster over `tasks` (sorted by arrival), fanning the
    /// independent machine simulations over up to `threads` workers.
    /// Results are merged in machine order, so the report is
    /// byte-identical at any `threads` value.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] (in machine order) if any
    /// machine's policy strands or stalls its tasks.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is not sorted by arrival or the dispatch policy
    /// returns an out-of-range machine index.
    pub fn run(mut self, tasks: &[ClusterTask], threads: usize) -> Result<ClusterReport, SimError> {
        let mut front = FrontEnd::new(&self.cfg);
        let mut assignment = front.dispatch_chunk(tasks, &mut self.dispatch);
        // Replay whatever the fault layer still owes: crashes after the
        // last arrival and queued re-dispatches. A no-chaos front end
        // returns an all-empty tail.
        let tail = front.finish(&mut self.dispatch);
        assignment.cold_starts += tail.cold_starts;
        for (machine, specs) in tail.per_machine.into_iter().enumerate() {
            assignment.per_machine[machine].extend(specs);
        }
        let mut overload = front.overload_stats();
        let chaos = front.chaos_stats();
        let (health, machine_health) = front.health_stats();
        let cfg = &self.cfg;
        let make_policy = &self.make_policy;
        let outcomes = par::par_map_with(threads, assignment.per_machine, |i, specs| {
            // Owned per-machine spec list: moved into the machine, no
            // per-spec clone.
            MachineRun::new(cfg.machine_config(i), specs, make_policy(i)).run_slim()
        });
        let mut machines = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            machines.push(outcome?);
        }
        overload.kernel_cancelled = machines.iter().map(|m| m.cancelled).sum();
        let records = machines
            .iter()
            .map(|m| records_from_tasks(&m.tasks))
            .collect();
        Ok(ClusterReport {
            dispatch: self.dispatch.name().to_owned(),
            machines,
            records,
            cold_starts: assignment.cold_starts,
            overload,
            chaos,
            health,
            machine_health,
        })
    }
}

/// Builds the cluster workload from a synthesized trace: the sharded task
/// specs zipped with each invocation's duration bucket (`fib_n`) as the
/// function identity — invocations of the same Fibonacci bucket are "the
/// same function" for warmth purposes, matching how the paper's workload
/// files identify functions.
pub fn workload_from_trace(trace: &AzureTrace, shards: usize) -> Vec<ClusterTask> {
    trace.map_task_specs_sharded(shards, |spec, inv| ClusterTask {
        spec,
        function: u64::from(inv.fib_n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use azure_trace::TraceConfig;
    use dispatch::{KeepAliveDispatch, LeastOutstanding, RoundRobinDispatch};
    use faas_policies::Fifo;

    fn tiny_tasks() -> Vec<ClusterTask> {
        workload_from_trace(&AzureTrace::generate(&TraceConfig::tiny()), 1)
    }

    #[test]
    fn every_invocation_completes_somewhere() {
        let tasks = tiny_tasks();
        let cfg = ClusterConfig::new(3, MachineConfig::new(2));
        let report = Cluster::new(cfg, RoundRobinDispatch::new(), |_| Fifo::new())
            .run(&tasks, 2)
            .unwrap();
        assert_eq!(report.merged_records().len(), tasks.len());
        assert_eq!(report.dispatched().iter().sum::<usize>(), tasks.len());
        assert_eq!(report.dispatch, "round-robin");
        assert!(report.finished_at() > SimTime::ZERO);
    }

    #[test]
    fn machine_seeds_are_independent_streams() {
        let cfg = ClusterConfig::new(4, MachineConfig::new(2).with_seed(42));
        let seeds: Vec<u64> = (0..4).map(|i| cfg.machine_config(i).seed).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "per-machine seeds must differ: {seeds:?}");
        assert_eq!(cfg.machine_config(2).seed, SimRng::stream_seed(42, 2));
    }

    #[test]
    fn keep_alive_beats_oblivious_dispatch_on_cold_starts() {
        let tasks = tiny_tasks();
        let cfg = || {
            ClusterConfig::new(4, MachineConfig::new(2))
                .with_cold_start(ColdStartConfig::firecracker())
        };
        let ka = Cluster::new(cfg(), KeepAliveDispatch, |_| Fifo::new())
            .run(&tasks, 1)
            .unwrap();
        let rr = Cluster::new(cfg(), RoundRobinDispatch::new(), |_| Fifo::new())
            .run(&tasks, 1)
            .unwrap();
        assert!(
            ka.cold_starts < rr.cold_starts,
            "keep-alive {} vs round-robin {}",
            ka.cold_starts,
            rr.cold_starts
        );
    }

    #[test]
    fn fan_width_does_not_change_results() {
        let tasks = tiny_tasks();
        let run = |threads| {
            let cfg = ClusterConfig::new(5, MachineConfig::new(2));
            Cluster::new(cfg, LeastOutstanding, |_| Fifo::new())
                .run(&tasks, threads)
                .unwrap()
        };
        let serial = run(1);
        let fanned = run(4);
        assert_eq!(serial.merged_records(), fanned.merged_records());
        assert_eq!(serial.dispatched(), fanned.dispatched());
    }
}
