//! `fleet-xl-stream`: the `cluster-xl-512` shape. 512 hybrid nodes behind
//! `KeepAliveDispatch` with Firecracker cold starts; the hour trace at
//! 512× W2's rate, downscaled, streams through `Cluster::run_streaming` in
//! one-minute chunks with billing on.

use std::cell::Cell;

use azure_trace::TraceConfig;
use faas_cluster::dispatch::KeepAliveDispatch;
use faas_cluster::{
    Cluster, ClusterChunk, ClusterConfig, ClusterTaskStream, ColdStartConfig, FrontEnd,
    StreamOptions,
};
use faas_kernel::{MachineRun, SimError, TaskSpec};
use faas_metrics::{StreamClusterSummary, StreamRunStats, TaskRecord};
use faas_simcore::SimTime;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::{CostAccumulator, PriceModel};

use super::{Params, Workload};
use crate::marks::{Marked, Marks};
use crate::outputs::{FrontOut, MachineOut, Outputs, Policy, Quantiles};
use crate::spans::{Layer, Spans};

const MACHINES: usize = 512;
/// The hour trace is downscaled by this factor, to 46,657 invocations.
/// At 1/2048 the one loaded hybrid node holds about 1,500 tasks in flight,
/// and its run time spread twice as wide between runs on a shared host.
const SCALE_DIV: usize = 4096;
const CHUNK_MINUTES: usize = 1;

pub struct FleetXlStream {
    pub p: Params,
}

fn agent(_machine: usize) -> HybridScheduler {
    HybridScheduler::new(HybridConfig::paper_25_25())
}

impl FleetXlStream {
    /// `faas-bench`'s `cluster_xl_trace_cfg(512)` at `SCALE_DIV=4096`.
    fn trace_config() -> TraceConfig {
        let hour = TraceConfig {
            minutes: 60,
            total_invocations: 373_260,
            ..TraceConfig::w2()
        };
        hour.rps_scaled(MACHINES).downscaled(SCALE_DIV)
    }

    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(MACHINES, self.p.paper_machine())
            .with_cold_start(ColdStartConfig::firecracker())
    }

    fn options() -> StreamOptions {
        StreamOptions {
            price: Some(PriceModel::duration_only()),
            ..StreamOptions::default()
        }
    }
}

/// The trace stream, created on its first `next`: `run_streaming` builds
/// the front end and every machine before it pulls the first chunk, and
/// that pull is the run's first trace call. Every pull is marked.
struct LazyChunks<'a> {
    cfg: &'a TraceConfig,
    marks: &'a Marks,
    stream: Option<ClusterTaskStream>,
    arrived: &'a Cell<usize>,
}

impl Iterator for LazyChunks<'_> {
    type Item = ClusterChunk;

    fn next(&mut self) -> Option<ClusterChunk> {
        self.marks.mark();
        let cfg = self.cfg;
        let chunk = self
            .stream
            .get_or_insert_with(|| ClusterTaskStream::new(cfg, CHUNK_MINUTES))
            .next()?;
        self.arrived.set(self.arrived.get() + chunk.tasks.len());
        Some(chunk)
    }
}

/// One machine between chunks, as `run_streaming` keeps it.
struct Node {
    run: MachineRun<HybridScheduler>,
    stats: StreamRunStats,
    cost: CostAccumulator,
    max_live: usize,
    fed: u64,
    retired: Vec<TaskRecord>,
}

impl Node {
    /// Feeds a share, advances to `bound` (exclusive; `None` drains the
    /// machine) and folds what retired into the accumulators.
    fn advance(
        &mut self,
        sp: &mut Spans,
        specs: Vec<TaskSpec>,
        bound: Option<SimTime>,
    ) -> Result<(), SimError> {
        self.fed += specs.len() as u64;
        let run = &mut self.run;
        sp.time(Layer::Kernel, "MachineRun::feed_specs", || {
            run.feed_specs(specs)
        });
        self.max_live = self.max_live.max(run.machine().num_live_tasks());
        match bound {
            Some(b) => sp.time(Layer::Kernel, "MachineRun::run_until", || run.run_until(b))?,
            None => sp.time(Layer::Kernel, "MachineRun::run_to_end", || run.run_to_end())?,
        }
        let retired = &mut self.retired;
        retired.clear();
        sp.time(Layer::Kernel, "MachineRun::retire_finished", || {
            run.retire_finished(|task| {
                // Kernel-cancelled tasks are terminal but leave no record.
                if !task.is_cancelled() {
                    retired.push(TaskRecord::try_from(&task).expect("retired tasks are finished"));
                }
            })
        });
        let (stats, cost) = (&mut self.stats, &mut self.cost);
        sp.time(Layer::Metrics, "StreamRunStats::record", || {
            retired.iter().for_each(|r| stats.record(r));
        });
        sp.time(Layer::Pricing, "CostAccumulator::record", || {
            retired.iter().for_each(|r| cost.record(r));
        });
        Ok(())
    }
}

/// Feeds every machine its share in one fan.
fn advance_all(
    sp: &mut Spans,
    width: usize,
    nodes: Vec<Node>,
    shares: Vec<Vec<TaskSpec>>,
    bound: Option<SimTime>,
) -> Result<Vec<Node>, SimError> {
    let items: Vec<(Node, Vec<TaskSpec>)> = nodes.into_iter().zip(shares).collect();
    sp.fan(width, items, |_, (mut node, specs), local| {
        node.advance(local, specs, bound).map(|()| node)
    })
    .into_iter()
    .collect()
}

impl Workload for FleetXlStream {
    fn run(&self, marks: &Marks) -> Result<Outputs, SimError> {
        let trace_cfg = Self::trace_config();
        let arrived = Cell::new(0);
        let chunks = LazyChunks {
            cfg: &trace_cfg,
            marks,
            stream: None,
            arrived: &arrived,
        };
        let report = Cluster::new(
            self.cluster_config(),
            Marked::new(KeepAliveDispatch, marks),
            |i| Marked::new(agent(i), marks),
        )
        .run_streaming(chunks, &Self::options(), self.p.width)?;
        let summary = report.summary();
        let cost = report.total_cost_usd();
        let machines = report
            .machines
            .iter()
            .map(|m| MachineOut {
                policy: Policy::Hybrid,
                fed: None,
                completed: m.tasks,
                cancelled: m.cancelled,
                events: m.events_processed,
                preemptions: m.core_stats.iter().map(|c| c.preemptions).sum(),
                finished_at_us: m.finished_at.as_micros(),
                max_in_flight: m.max_in_flight,
                max_live: m.max_live_tasks as u64,
                cost_bits: m.cost_usd.to_bits(),
            })
            .collect();
        Ok(Outputs {
            synthesized: arrived.get() as u64,
            arrived: arrived.get() as u64,
            machines,
            front: Some(FrontOut {
                cold_starts: report.cold_starts,
                overload: report.overload,
                chaos: report.chaos,
                health: report.health,
                machine_health: report.machine_health.clone(),
            }),
            subject: Quantiles::of(&summary.summary()),
            cost_bits: cost.to_bits(),
            sketch_tuples: report
                .machines
                .iter()
                .map(|m| m.stats.tuple_count() as u64)
                .sum(),
        })
    }

    fn run_traced(&self, sp: &mut Spans) -> Result<Outputs, SimError> {
        let width = self.p.width;
        let trace_cfg = Self::trace_config();
        let cfg = self.cluster_config();
        let opts = Self::options();
        let price = opts.price.expect("the fleet bills as it streams");
        let mut front = sp.time(Layer::Frontend, "FrontEnd::new", || FrontEnd::new(&cfg));
        let mut nodes = Vec::with_capacity(MACHINES);
        for i in 0..MACHINES {
            sp.on_machine(Some(i));
            let machine = sp.time(Layer::Kernel, "ClusterConfig::machine_config", || {
                cfg.machine_config(i)
            });
            let run = sp.time(Layer::Kernel, "MachineRun::new", || {
                MachineRun::new(machine, Vec::new(), agent(i))
            });
            let stats = sp.time(Layer::Metrics, "StreamRunStats::new", || {
                StreamRunStats::new(opts.epsilon)
            });
            let cost = sp.time(Layer::Pricing, "CostAccumulator::new", || {
                CostAccumulator::new(price)
            });
            nodes.push(Node {
                run,
                stats,
                cost,
                max_live: 0,
                fed: 0,
                retired: Vec::new(),
            });
        }
        sp.on_machine(None);

        let mut stream = sp.time(Layer::Trace, "ClusterTaskStream::new", || {
            ClusterTaskStream::new(&trace_cfg, CHUNK_MINUTES)
        });
        let mut dispatch = KeepAliveDispatch;
        let mut cold_starts = 0;
        let mut arrived = 0;
        // Machines lag one chunk behind the front end, as in
        // `run_streaming`: the last chunk merges with the front end's tail.
        let mut pending: Option<(Vec<Vec<TaskSpec>>, SimTime)> = None;
        while let Some(chunk) = sp.time(Layer::Trace, "ClusterTaskStream::next", || stream.next()) {
            arrived += chunk.tasks.len() as u64;
            let assignment = sp.time(Layer::Frontend, "FrontEnd::dispatch_chunk", || {
                front.dispatch_chunk(&chunk.tasks, &mut dispatch)
            });
            cold_starts += assignment.cold_starts;
            if let Some((shares, bound)) = pending.replace((assignment.per_machine, chunk.end)) {
                nodes = advance_all(sp, width, nodes, shares, Some(bound))?;
            }
        }
        let tail = sp.time(Layer::Frontend, "FrontEnd::finish", || {
            front.finish(&mut dispatch)
        });
        cold_starts += tail.cold_starts;
        let mut last = pending.map_or_else(|| vec![Vec::new(); MACHINES], |(shares, _)| shares);
        for (machine, specs) in tail.per_machine.into_iter().enumerate() {
            last[machine].extend(specs);
        }
        nodes = advance_all(sp, width, nodes, last, None)?;

        let mut machines = Vec::with_capacity(MACHINES);
        for (i, node) in nodes.iter().enumerate() {
            sp.on_machine(Some(i));
            let core_stats = sp.time(Layer::Kernel, "MachineRun::core_stats", || {
                node.run.core_stats()
            });
            let m = node.run.machine();
            machines.push(MachineOut {
                policy: Policy::Hybrid,
                fed: Some(node.fed),
                completed: node.stats.count(),
                cancelled: m.num_cancelled(),
                events: m.events_processed(),
                preemptions: core_stats.iter().map(|c| c.preemptions).sum(),
                finished_at_us: m.now().as_micros(),
                max_in_flight: m.max_in_flight(),
                max_live: node.max_live as u64,
                cost_bits: node.cost.total_usd().to_bits(),
            });
        }
        sp.on_machine(None);
        let mut overload = sp.time(Layer::Frontend, "FrontEnd::overload_stats", || {
            front.overload_stats()
        });
        overload.kernel_cancelled = machines.iter().map(|m| m.cancelled).sum();
        let (health, machine_health) = sp.time(Layer::Frontend, "FrontEnd::health_stats", || {
            front.health_stats()
        });
        let chaos = sp.time(Layer::Frontend, "FrontEnd::chaos_stats", || {
            front.chaos_stats()
        });
        let summary = sp.time(Layer::Metrics, "StreamClusterSummary::compute", || {
            let stats: Vec<StreamRunStats> = nodes.iter().map(|n| n.stats.clone()).collect();
            StreamClusterSummary::compute(&stats)
                .with_overload(overload)
                .with_chaos(chaos)
                .with_health(health, machine_health.clone())
        });
        let cost: f64 = sp.time(Layer::Pricing, "CostAccumulator::total_usd", || {
            nodes.iter().map(|n| n.cost.total_usd()).sum()
        });
        Ok(Outputs {
            synthesized: arrived,
            arrived,
            machines,
            front: Some(FrontOut {
                cold_starts,
                overload,
                chaos,
                health,
                machine_health,
            }),
            subject: Quantiles::of(&summary.summary()),
            cost_bits: cost.to_bits(),
            sketch_tuples: nodes.iter().map(|n| n.stats.tuple_count() as u64).sum(),
        })
    }

    fn check(&self, out: &Outputs) -> Result<(), String> {
        // No middleware, chaos or health layer: every arrival completes.
        let (completed, cancelled) = (out.completed(), out.cancelled());
        if completed != out.arrived || cancelled != 0 {
            return Err(format!(
                "{completed} of {} invocations completed, {cancelled} cancelled",
                out.arrived
            ));
        }
        Ok(())
    }
}
