//! Streaming cluster runs: chunked trace feed, incremental dispatch,
//! bounded-memory machine simulation and mergeable metric sketches.
//!
//! [`Cluster::run`] materializes the whole workload, dispatches it in one
//! pass and holds every task record until the end — O(invocations)
//! memory, which caps fleet scale. [`Cluster::run_streaming`] runs the
//! *same* three phases as a loop over [`ClusterChunk`]s instead:
//!
//! 1. the front end dispatches one chunk
//!    ([`FrontEnd::dispatch_chunk`](crate::FrontEnd::dispatch_chunk)),
//!    carrying its load estimates and warm pools across chunks;
//! 2. every machine feeds its share, advances to the chunk horizon
//!    (strictly below it — the next chunk's first arrival may land
//!    exactly on the boundary) and **retires** finished task records into
//!    per-machine accumulators ([`StreamRunStats`] + [`CostAccumulator`]);
//! 3. after the last chunk, machines drain to completion.
//!
//! A machine's state (its `MachineRun` and accumulators) is built on its
//! first non-empty feed; until then it would process no event. A machine
//! that is never fed is built only at the end, to be reported. Each
//! machine's utilization ledger keeps only the window its policy reads
//! ([`MachineRun::bound_utilization`]). Peak memory is O(in-flight tasks +
//! fed machines × sketch), independent of how many invocations the trace
//! contains, of how long each fed machine lives and of how its work is
//! spaced. Dispatch decisions, exact
//! aggregates (count/mean/max/total), core stats, event counts and the
//! billed cost are **identical** to the materializing path — bitwise, at
//! any fan width — and sketched quantiles carry a rank-error certificate.
//! The `streaming_differential` integration suite pins all of this.

use faas_kernel::{CoreStats, MachineConfig, MachineRun, Scheduler, SimError, TaskSpec};
use faas_metrics::{
    ChaosStats, HealthStats, MachineHealth, OverloadStats, StreamClusterSummary, StreamRunStats,
    TaskRecord, DEFAULT_STREAM_EPSILON,
};
use faas_simcore::{par, SimDuration, SimTime};
use lambda_pricing::{CostAccumulator, PriceModel};

use crate::dispatch::Dispatch;
use crate::frontend::FrontEnd;
use crate::{Cluster, ClusterTask};

/// One chunk of a streamed cluster workload: a contiguous run of the
/// arrival stream plus its exclusive time horizon.
#[derive(Debug, Clone)]
pub struct ClusterChunk {
    /// Exclusive horizon: every contained arrival is strictly before this
    /// instant, and every later chunk's arrival is at or after it.
    pub end: SimTime,
    /// The chunk's invocations, sorted by arrival.
    pub tasks: Vec<ClusterTask>,
}

/// Lazy, chunk-at-a-time equivalent of [`workload_from_trace`]: wraps
/// [`azure_trace::TraceStream`] and attaches the function identity
/// (the invocation's Fibonacci bucket) to each spec. Iterating yields the
/// exact concatenation [`workload_from_trace`] would materialize.
///
/// [`workload_from_trace`]: crate::workload_from_trace
#[derive(Debug)]
pub struct ClusterTaskStream {
    inner: azure_trace::TraceStream,
    chunk_minutes: usize,
}

impl ClusterTaskStream {
    /// Streams the trace described by `cfg` in chunks of `chunk_minutes`
    /// whole trace minutes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_minutes` is zero or `cfg` describes an empty
    /// trace (like the materializing path).
    pub fn new(cfg: &azure_trace::TraceConfig, chunk_minutes: usize) -> Self {
        assert!(chunk_minutes > 0, "chunk must cover at least one minute");
        ClusterTaskStream {
            inner: azure_trace::TraceStream::new(cfg),
            chunk_minutes,
        }
    }

    /// Total invocations the full stream will emit.
    pub fn total_invocations(&self) -> usize {
        self.inner.total_invocations()
    }
}

impl Iterator for ClusterTaskStream {
    type Item = ClusterChunk;

    fn next(&mut self) -> Option<ClusterChunk> {
        let chunk = self.inner.next_chunk(self.chunk_minutes)?;
        let tasks = chunk
            .specs
            .into_iter()
            .zip(&chunk.invocations)
            .map(|(spec, inv)| ClusterTask {
                spec,
                function: u64::from(inv.fib_n),
            })
            .collect();
        Some(ClusterChunk {
            end: chunk.end,
            tasks,
        })
    }
}

/// Splits an already-materialized workload (sorted by arrival) into
/// window-aligned [`ClusterChunk`]s — the adapter that lets any in-memory
/// task list run through the streaming path, which is exactly what the
/// differential suite exercises.
///
/// # Panics
///
/// Panics if `window` is zero or `tasks` is not sorted by arrival.
pub fn chunk_workload(tasks: &[ClusterTask], window: SimDuration) -> Vec<ClusterChunk> {
    assert!(!window.is_zero(), "chunk window must be positive");
    let w = window.as_micros();
    let mut chunks: Vec<ClusterChunk> = Vec::new();
    let mut next_boundary = w;
    let mut current: Vec<ClusterTask> = Vec::new();
    let mut last = SimTime::ZERO;
    for task in tasks {
        let at = task.spec.arrival;
        assert!(at >= last, "workload must be sorted by arrival");
        last = at;
        while at.as_micros() >= next_boundary {
            chunks.push(ClusterChunk {
                end: SimTime::from_micros(next_boundary),
                tasks: std::mem::take(&mut current),
            });
            next_boundary += w;
        }
        current.push(task.clone());
    }
    if !current.is_empty() {
        chunks.push(ClusterChunk {
            end: SimTime::from_micros(next_boundary),
            tasks: current,
        });
    }
    chunks
}

/// Tuning of a streaming cluster run.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Rank-error parameter of the quantile sketches
    /// ([`DEFAULT_STREAM_EPSILON`] by default).
    pub epsilon: f64,
    /// Bill retired records under this tariff as they stream by; `None`
    /// skips billing (reported costs are zero).
    pub price: Option<PriceModel>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            epsilon: DEFAULT_STREAM_EPSILON,
            price: None,
        }
    }
}

/// Per-machine outcome of a streaming run: fixed-size accumulators
/// instead of task records — the [`SlimReport`](faas_kernel::SlimReport)
/// analogue whose size is independent of the invocation count.
#[derive(Debug)]
pub struct StreamMachineReport {
    /// Scheduler policy name the machine ran.
    pub policy: String,
    /// The three paper metrics, accumulated as records retired.
    pub stats: StreamRunStats,
    /// Per-core statistics, in core order.
    pub core_stats: Vec<CoreStats>,
    /// Virtual instant the machine's last task finished.
    pub finished_at: SimTime,
    /// Kernel events processed (stale generations included).
    pub events_processed: u64,
    /// Invocations completed (and billed) on this machine.
    pub tasks: u64,
    /// Billed cost in USD (zero when [`StreamOptions::price`] is `None`).
    pub cost_usd: f64,
    /// Peak number of task records held in memory at once — the bounded
    /// quantity that replaces the materializing path's O(invocations).
    pub max_live_tasks: usize,
    /// Peak in-flight backlog (arrived − finished) the machine's kernel
    /// observed — the same metric as
    /// [`ClusterReport::max_in_flight`](crate::ClusterReport::max_in_flight).
    pub max_in_flight: u64,
    /// Invocations killed mid-flight by kernel deadline cancellation
    /// (dispatched, partially run, never billed).
    pub cancelled: u64,
}

/// Outcome of a whole streaming cluster run — O(fed machines × sketch)
/// memory plus each machine's core stats, the
/// [`ClusterReport`](crate::ClusterReport) analogue.
#[derive(Debug)]
pub struct StreamClusterReport {
    /// Dispatch policy name the run used.
    pub dispatch: String,
    /// Per-machine reports, in machine order.
    pub machines: Vec<StreamMachineReport>,
    /// Invocations that paid the cold-start boot cost.
    pub cold_starts: u64,
    /// What the overload middleware refused or killed (all-zero without
    /// middleware), `kernel_cancelled` included.
    pub overload: OverloadStats,
    /// Crash/retry/autoscale ledger of the chaos layer (all-zero without
    /// a fault plan or autoscaler).
    pub chaos: ChaosStats,
    /// Ejection/hedge/backoff ledger of the node-health layer (all-zero
    /// with nothing armed in the [`HealthConfig`](crate::HealthConfig)
    /// and no backoff).
    pub health: HealthStats,
    /// Per-machine health telemetry, in machine order (empty unless
    /// ejection or hedging is armed).
    pub machine_health: Vec<MachineHealth>,
}

impl StreamClusterReport {
    /// Merged + per-machine metric summaries (sketched quantiles, exact
    /// everything else), merging in machine order, with the overload shed
    /// ledger attached.
    ///
    /// # Panics
    ///
    /// Panics if no machine completed any task.
    pub fn summary(&self) -> StreamClusterSummary {
        let stats: Vec<StreamRunStats> = self.machines.iter().map(|m| m.stats.clone()).collect();
        StreamClusterSummary::compute(&stats)
            .with_overload(self.overload)
            .with_chaos(self.chaos)
            .with_health(self.health, self.machine_health.clone())
    }

    /// Invocations completed on each machine.
    pub fn dispatched(&self) -> Vec<u64> {
        self.machines.iter().map(|m| m.tasks).collect()
    }

    /// The virtual instant the last machine finished.
    pub fn finished_at(&self) -> SimTime {
        self.machines
            .iter()
            .map(|m| m.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total billed cost: per-machine totals summed in machine order —
    /// the same fold as
    /// [`PriceModel::cluster_workload_cost`], so it is bitwise equal to
    /// pricing the materialized per-machine records.
    pub fn total_cost_usd(&self) -> f64 {
        self.machines.iter().map(|m| m.cost_usd).sum()
    }

    /// Kernel events processed across the fleet.
    pub fn events_processed(&self) -> u64 {
        self.machines.iter().map(|m| m.events_processed).sum()
    }

    /// The largest number of task records any machine held at once.
    pub fn max_live_tasks(&self) -> usize {
        self.machines
            .iter()
            .map(|m| m.max_live_tasks)
            .max()
            .unwrap_or(0)
    }

    /// Peak in-flight backlog across the fleet (kernel-measured; same
    /// metric as [`ClusterReport::max_in_flight`]).
    ///
    /// [`ClusterReport::max_in_flight`]: crate::ClusterReport::max_in_flight
    pub fn max_in_flight(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| m.max_in_flight)
            .max()
            .unwrap_or(0)
    }
}

/// A fed machine's state across chunks: its `MachineRun` plus the
/// accumulators its retired records fold into. It is built on the
/// machine's first non-empty feed and boxed in the run's vector, so a
/// machine that is never fed costs one empty slot; each chunk's fan
/// borrows a built state mutably instead of moving it out and back.
struct MachineState<P> {
    run: MachineRun<P>,
    stats: StreamRunStats,
    cost: Option<CostAccumulator>,
    max_live: usize,
    /// Specs fed so far; each ends completed or kernel-cancelled.
    fed: u64,
}

impl<P: Scheduler> MachineState<P> {
    fn new(cfg: MachineConfig, policy: P, opts: &StreamOptions) -> Self {
        let mut run = MachineRun::new(cfg, Vec::new(), policy);
        run.bound_utilization();
        MachineState {
            run,
            stats: StreamRunStats::new(opts.epsilon),
            cost: opts.price.map(CostAccumulator::new),
            max_live: 0,
            fed: 0,
        }
    }

    /// Feeds a share, advances to `bound` (exclusive; `None` drains the
    /// machine, for the last chunk plus the front end's chaos tail) and
    /// retires what finished into the accumulators.
    fn advance(&mut self, specs: Vec<TaskSpec>, bound: Option<SimTime>) -> Result<(), SimError> {
        self.fed += specs.len() as u64;
        self.run.feed_specs(specs);
        self.max_live = self.max_live.max(self.run.machine().num_live_tasks());
        match bound {
            Some(bound) => self.run.run_until(bound)?,
            None => self.run.run_to_end()?,
        }
        self.retire();
        Ok(())
    }

    fn retire(&mut self) {
        let MachineState {
            run, stats, cost, ..
        } = self;
        run.retire_finished(|task| {
            // Kernel-cancelled tasks are terminal but unbilled: no record
            // to fold — the machine's `num_cancelled` counter is the only
            // trace they leave.
            if task.is_cancelled() {
                return;
            }
            let record = TaskRecord::try_from(&task).expect("retired tasks are finished");
            stats.record(&record);
            if let Some(c) = cost {
                c.record(&record);
            }
        });
    }

    fn into_report(self) -> StreamMachineReport {
        debug_assert_eq!(
            self.fed,
            self.stats.count() + self.run.machine().num_cancelled(),
            "a streamed machine lost work: fed != completed + kernel-cancelled"
        );
        StreamMachineReport {
            policy: self.run.policy().name().to_owned(),
            core_stats: self.run.core_stats(),
            finished_at: self.run.machine().now(),
            events_processed: self.run.machine().events_processed(),
            tasks: self.stats.count(),
            cost_usd: self.cost.as_ref().map_or(0.0, CostAccumulator::total_usd),
            max_live_tasks: self.max_live,
            max_in_flight: self.run.machine().max_in_flight(),
            cancelled: self.run.machine().num_cancelled(),
            stats: self.stats,
        }
    }
}

impl<D, P, F> Cluster<D, F>
where
    D: Dispatch,
    P: Scheduler + Send,
    F: Fn(usize) -> P + Sync,
{
    /// Builds the state of every machine fed for the first time, then
    /// advances every built machine through its share in one fan (see
    /// [`MachineState::advance`]). A machine with no state and an empty
    /// share stays unbuilt: with nothing fed it would process no event.
    fn advance_fleet(
        &self,
        states: &mut [Option<Box<MachineState<P>>>],
        shares: Vec<Vec<TaskSpec>>,
        bound: Option<SimTime>,
        opts: &StreamOptions,
        threads: usize,
    ) -> Result<(), SimError> {
        let mut items = Vec::new();
        for (i, (slot, specs)) in states.iter_mut().zip(shares).enumerate() {
            if slot.is_none() && !specs.is_empty() {
                let policy = (self.make_policy)(i);
                *slot = Some(Box::new(MachineState::new(
                    self.cfg.machine_config(i),
                    policy,
                    opts,
                )));
            }
            if let Some(state) = slot {
                items.push((&mut **state, specs));
            }
        }
        let outcomes = par::par_map_with(threads, items, |_i, (state, specs)| {
            state.advance(specs, bound)
        });
        outcomes.into_iter().collect()
    }

    /// Runs the cluster over a chunked arrival stream, fanning the
    /// independent machine simulations over up to `threads` workers per
    /// chunk. Dispatch decisions and all exact statistics are identical
    /// to [`Cluster::run`] over the stream's concatenation, at any
    /// `threads` value — but peak memory stays O(in-flight + fed
    /// machines), independent of the stream's total length. Debug builds
    /// check each machine's conservation at the end: every spec fed
    /// completed or was cancelled by the kernel.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] (in machine order).
    ///
    /// # Panics
    ///
    /// Panics if chunk arrivals are out of order or the dispatch policy
    /// returns an out-of-range machine index.
    pub fn run_streaming(
        mut self,
        chunks: impl IntoIterator<Item = ClusterChunk>,
        opts: &StreamOptions,
        threads: usize,
    ) -> Result<StreamClusterReport, SimError> {
        let mut front = FrontEnd::new(&self.cfg);
        let mut states: Vec<Option<Box<MachineState<P>>>> =
            (0..self.cfg.machines).map(|_| None).collect();
        let mut cold_starts = 0u64;
        // Machines lag one chunk behind the front end: chunk `k`'s shares
        // are only fed once chunk `k+1` has been dispatched. The final
        // chunk then merges with the front end's chaos tail (queued
        // re-dispatches can land *before* the last chunk horizon, which a
        // `run_until` at that horizon would have sealed off) and drains in
        // one pass — the exact feed sequence of the materializing path.
        let mut pending: Option<(Vec<Vec<TaskSpec>>, SimTime)> = None;
        for chunk in chunks {
            let assignment = front.dispatch_chunk(&chunk.tasks, &mut self.dispatch);
            cold_starts += assignment.cold_starts;
            if let Some((specs, bound)) = pending.replace((assignment.per_machine, chunk.end)) {
                self.advance_fleet(&mut states, specs, Some(bound), opts, threads)?;
            }
        }
        let tail = front.finish(&mut self.dispatch);
        cold_starts += tail.cold_starts;
        let mut last_specs = pending.map_or_else(
            || {
                (0..self.cfg.machines)
                    .map(|_| Vec::new())
                    .collect::<Vec<_>>()
            },
            |(specs, _)| specs,
        );
        for (machine, specs) in tail.per_machine.into_iter().enumerate() {
            last_specs[machine].extend(specs);
        }
        self.advance_fleet(&mut states, last_specs, None, opts, threads)?;
        let machines: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| match state {
                Some(state) => state.into_report(),
                // Built only now, one at a time, and reported at once.
                None => MachineState::new(self.cfg.machine_config(i), (self.make_policy)(i), opts)
                    .into_report(),
            })
            .collect();
        let mut overload = front.overload_stats();
        overload.kernel_cancelled = machines.iter().map(|m| m.cancelled).sum();
        let (health, machine_health) = front.health_stats();
        Ok(StreamClusterReport {
            dispatch: self.dispatch.name().to_owned(),
            machines,
            cold_starts,
            overload,
            chaos: front.chaos_stats(),
            health,
            machine_health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::LeastOutstanding;
    use crate::{workload_from_trace, ClusterConfig};
    use azure_trace::{AzureTrace, TraceConfig};
    use faas_kernel::MachineConfig;
    use faas_policies::Fifo;

    #[test]
    fn cluster_task_stream_concatenates_to_the_materialized_workload() {
        let cfg = TraceConfig::tiny();
        let materialized = workload_from_trace(&AzureTrace::generate(&cfg), 1);
        let streamed: Vec<ClusterTask> = ClusterTaskStream::new(&cfg, 1)
            .flat_map(|c| c.tasks)
            .collect();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn chunk_workload_partitions_without_loss() {
        let cfg = TraceConfig::w2().downscaled(8);
        let tasks = workload_from_trace(&AzureTrace::generate(&cfg), 1);
        let chunks = chunk_workload(&tasks, SimDuration::from_secs(15));
        let rejoined: Vec<ClusterTask> = chunks.iter().flat_map(|c| c.tasks.clone()).collect();
        assert_eq!(rejoined, tasks);
        for c in &chunks {
            assert!(c.tasks.iter().all(|t| t.spec.arrival < c.end));
        }
        for pair in chunks.windows(2) {
            assert!(pair[0].end <= pair[1].end);
            assert!(pair[1].tasks.iter().all(|t| t.spec.arrival >= pair[0].end));
        }
    }

    #[test]
    fn empty_windows_are_emitted_as_empty_chunks() {
        // A lull in the middle must not splice time: machines still
        // advance through it chunk by chunk.
        let mk = |ms: u64| ClusterTask {
            spec: faas_kernel::TaskSpec::function(
                SimTime::from_millis(ms),
                SimDuration::from_millis(1),
                128,
            ),
            function: 0,
        };
        let tasks = vec![mk(0), mk(3_500)];
        let chunks = chunk_workload(&tasks, SimDuration::from_secs(1));
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[1].tasks.len(), 0);
        assert_eq!(chunks[2].tasks.len(), 0);
        assert_eq!(chunks[3].tasks.len(), 1);
    }

    #[test]
    fn streaming_run_completes_everything() {
        let cfg = TraceConfig::tiny();
        let cluster = Cluster::new(
            ClusterConfig::new(3, MachineConfig::new(2)),
            LeastOutstanding,
            |_| Fifo::new(),
        );
        let stream = ClusterTaskStream::new(&cfg, 1);
        let total = stream.total_invocations() as u64;
        let report = cluster
            .run_streaming(stream, &StreamOptions::default(), 2)
            .unwrap();
        assert_eq!(report.dispatched().iter().sum::<u64>(), total);
        assert_eq!(report.dispatch, "least-outstanding");
        assert!(report.finished_at() > SimTime::ZERO);
        assert!(report.max_live_tasks() > 0);
        assert_eq!(report.summary().summary().execution.count as u64, total);
    }
}
