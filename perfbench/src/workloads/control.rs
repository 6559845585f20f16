//! `control-plane`: 128 FIFO nodes at about a quarter of W2's load each,
//! `LeastOutstanding` dispatch through the materializing `Cluster::run`,
//! with the front-end fold's stages armed: admission cap, 5 s timeout with
//! kernel cancel, seeded crashes and stragglers with backoff retries and a
//! retry budget, outlier ejection, and hedging under a 5% budget. Tunings
//! come from the `overload`, `retry-backoff` and `straggler-outliers`
//! scenarios, with the admission cap loosened so that most invocations
//! complete, and two changes that keep the simulated cost and completion
//! steady from one seed to the next:
//!
//! - Crashes keep a machine down for 4 s, not `retry-backoff`'s 12 s. An
//!   emptied machine is the least-outstanding pick, and once its ejection
//!   probation (5 s) ends while it is still down, every arrival routed to
//!   it blows the deadline. With 12 s of downtime, the completed share
//!   ranged from 69% to 96% over ten seeds.
//! - The circuit breaker stays off. The bursts of timeout verdicts crashes
//!   still cause trip breakers fleet-wide, and what they shed moved the
//!   completed share by 9% (IQR over ten seeds) even with 4 s downtime.

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::LeastOutstanding;
use faas_cluster::{
    workload_from_trace, BackoffConfig, ChaosConfig, Cluster, ClusterConfig, ColdStartConfig,
    EjectionConfig, FaultPlan, FaultPlanConfig, FrontEnd, HealthConfig, HedgeConfig,
    OverloadConfig,
};
use faas_kernel::{MachineRun, SimError, SlimReport};
use faas_metrics::{records_from_tasks, ClusterSummary, TaskRecord};
use faas_policies::Fifo;
use faas_simcore::SimDuration;
use lambda_pricing::PriceModel;

use super::{Params, Workload};
use crate::marks::{Marked, Marks};
use crate::outputs::{FrontOut, MachineOut, Outputs, Policy, Quantiles};
use crate::spans::{Layer, Spans};

const MACHINES: usize = 128;
/// W2 × 32 RPS (398,144 invocations): a quarter of W2's load per node.
const RPS_MULTIPLIER: usize = 32;
/// Per-function admission cap, loosened from the `overload` scenario's 32.
const CONCURRENCY_CAP: usize = 320;
/// Crash and straggler rates across the fleet, per trace minute.
const CRASHES_PER_MINUTE: f64 = 8.0;
const STRAGGLERS_PER_MINUTE: f64 = 2.0;
/// Shorter than the 5 s ejection probation, so a crashed machine stays
/// ejected until it is back (see the module docs).
const CRASH_DOWNTIME: SimDuration = SimDuration::from_secs(4);
/// Re-dispatches a crashed invocation gets before it is abandoned.
const MAX_RETRIES: u32 = 1;

pub struct ControlPlane {
    pub p: Params,
}

impl ControlPlane {
    fn trace_config() -> TraceConfig {
        TraceConfig::w2().rps_scaled(RPS_MULTIPLIER)
    }

    /// The fleet with its fold stages armed. Generates the fault plan, so
    /// it is part of the run's set-up.
    fn cluster_config(&self) -> ClusterConfig {
        let price = PriceModel::duration_only();
        let overload = OverloadConfig::default()
            .with_concurrency_limit(CONCURRENCY_CAP)
            .with_deadline(SimDuration::from_secs(5))
            .with_kernel_cancel()
            .with_price(price);
        let faults = FaultPlanConfig::new(self.p.seeded(0x00BA_C0FF), 2)
            .with_crashes(CRASHES_PER_MINUTE, CRASH_DOWNTIME)
            .with_stragglers(STRAGGLERS_PER_MINUTE, SimDuration::from_secs(30), 8.0);
        let backoff = BackoffConfig::new(self.p.seeded(0x0BAC_0FF5))
            .with_delays(SimDuration::from_millis(250), SimDuration::from_secs(30))
            .with_jitter(0.25);
        let chaos = ChaosConfig::new(FaultPlan::generate_sharded(&faults, MACHINES, self.p.width))
            .with_max_retries(MAX_RETRIES)
            .with_slo(SimDuration::from_secs(2))
            .with_price(price)
            .with_backoff(backoff);
        let ejection = EjectionConfig::default()
            .with_threshold(2.0)
            .with_probation(SimDuration::from_secs(5))
            .with_min_samples(8);
        let hedge = HedgeConfig::default()
            .with_min_samples(256)
            .with_price(price);
        ClusterConfig::new(MACHINES, self.p.paper_machine())
            .with_cold_start(ColdStartConfig::firecracker())
            .with_overload(overload)
            .with_chaos(chaos)
            .with_health(
                HealthConfig::default()
                    .with_ejection(ejection)
                    .with_hedge(hedge),
            )
    }

    /// `costs` holds each machine's duration-only bill, in machine order.
    fn outputs(
        arrived: usize,
        slims: &[SlimReport],
        records: &[Vec<TaskRecord>],
        costs: &[f64],
        front: FrontOut,
        summary: &ClusterSummary,
    ) -> Outputs {
        let machines = slims
            .iter()
            .zip(records)
            .zip(costs)
            .map(|((slim, r), &cost)| MachineOut::of_slim(Policy::Fifo, slim, r.len(), cost))
            .collect();
        // The machine-order `f64` sum `cluster_workload_cost` makes, so the
        // fleet bill is bit for bit its value.
        let cost: f64 = costs.iter().sum();
        Outputs {
            synthesized: arrived as u64,
            arrived: arrived as u64,
            machines,
            front: Some(front),
            subject: Quantiles::of(&summary.merged),
            cost_bits: cost.to_bits(),
            sketch_tuples: 0,
        }
    }
}

impl Workload for ControlPlane {
    fn run(&self, marks: &Marks) -> Result<Outputs, SimError> {
        let width = self.p.width;
        let trace_cfg = Self::trace_config();
        let cfg = self.cluster_config();
        marks.mark();
        let trace = AzureTrace::generate_sharded(&trace_cfg, width);
        marks.mark();
        let tasks = workload_from_trace(&trace, width);
        drop(trace);
        marks.mark();
        let report = Cluster::new(cfg, Marked::new(LeastOutstanding, marks), |_| {
            Marked::new(Fifo::new(), marks)
        })
        .run(&tasks, width)?;
        marks.mark();
        let summary = report.summary();
        let price = PriceModel::duration_only();
        let costs: Vec<f64> = report
            .records
            .iter()
            .map(|r| price.workload_cost(r))
            .collect();
        let front = FrontOut {
            cold_starts: report.cold_starts,
            overload: report.overload,
            chaos: report.chaos,
            health: report.health,
            machine_health: report.machine_health.clone(),
        };
        Ok(Self::outputs(
            tasks.len(),
            &report.machines,
            &report.records,
            &costs,
            front,
            &summary,
        ))
    }

    fn run_traced(&self, sp: &mut Spans) -> Result<Outputs, SimError> {
        let width = self.p.width;
        let trace_cfg = Self::trace_config();
        let cfg = sp.time(Layer::Frontend, "FaultPlan::generate_sharded", || {
            self.cluster_config()
        });
        let trace = sp.time(Layer::Trace, "AzureTrace::generate_sharded", || {
            AzureTrace::generate_sharded(&trace_cfg, width)
        });
        let tasks = sp.time(Layer::Trace, "workload_from_trace", || {
            workload_from_trace(&trace, width)
        });
        drop(trace);
        let mut front = sp.time(Layer::Frontend, "FrontEnd::new", || FrontEnd::new(&cfg));
        let mut dispatch = LeastOutstanding;
        let mut assignment = sp.time(Layer::Frontend, "FrontEnd::dispatch_chunk", || {
            front.dispatch_chunk(&tasks, &mut dispatch)
        });
        let tail = sp.time(Layer::Frontend, "FrontEnd::finish", || {
            front.finish(&mut dispatch)
        });
        assignment.cold_starts += tail.cold_starts;
        for (machine, specs) in tail.per_machine.into_iter().enumerate() {
            assignment.per_machine[machine].extend(specs);
        }
        let mut overload = sp.time(Layer::Frontend, "FrontEnd::overload_stats", || {
            front.overload_stats()
        });
        let chaos = sp.time(Layer::Frontend, "FrontEnd::chaos_stats", || {
            front.chaos_stats()
        });
        let (health, machine_health) = sp.time(Layer::Frontend, "FrontEnd::health_stats", || {
            front.health_stats()
        });
        let slims = sp
            .fan(width, assignment.per_machine, |i, specs, local| {
                let machine = local.time(Layer::Kernel, "ClusterConfig::machine_config", || {
                    cfg.machine_config(i)
                });
                let run = local.time(Layer::Kernel, "MachineRun::new", || {
                    MachineRun::new(machine, specs, Fifo::new())
                });
                local.time(Layer::Kernel, "MachineRun::run_slim", || run.run_slim())
            })
            .into_iter()
            .collect::<Result<Vec<SlimReport>, SimError>>()?;
        overload.kernel_cancelled = slims.iter().map(|m| m.cancelled).sum();
        let records: Vec<Vec<TaskRecord>> = slims
            .iter()
            .map(|m| {
                sp.time(Layer::Metrics, "records_from_tasks", || {
                    records_from_tasks(&m.tasks)
                })
            })
            .collect();
        let summary = sp.time(Layer::Metrics, "ClusterSummary::compute", || {
            ClusterSummary::compute(&records)
                .with_overload(overload)
                .with_chaos(chaos)
                .with_health(health, machine_health.clone())
        });
        let price = PriceModel::duration_only();
        let costs: Vec<f64> = records
            .iter()
            .map(|r| {
                sp.time(Layer::Pricing, "PriceModel::workload_cost", || {
                    price.workload_cost(r)
                })
            })
            .collect();
        let front = FrontOut {
            cold_starts: assignment.cold_starts,
            overload,
            chaos,
            health,
            machine_health,
        };
        Ok(Self::outputs(
            tasks.len(),
            &slims,
            &records,
            &costs,
            front,
            &summary,
        ))
    }

    fn check(&self, _out: &Outputs) -> Result<(), String> {
        // Shedding, abandonment and kernel cancellation are outcomes of the
        // armed control plane; per-machine conservation is the check.
        Ok(())
    }
}
