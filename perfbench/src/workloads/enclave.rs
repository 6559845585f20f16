//! `enclave-w2`: the paper's Table I. The W2 trace runs on one 50-core
//! enclave three times, under FIFO, CFS and the hybrid scheduler, and each
//! run's records are summarized and priced duration-only, as the `table1`
//! scenario does. No front end: the kernel and policy loop is nearly the
//! whole run.

use azure_trace::{AzureTrace, TraceConfig};
use faas_kernel::{
    MachineConfig, MachineRun, Scheduler, SimError, Simulation, SlimReport, TaskSpec,
};
use faas_metrics::{records_from_tasks, RunSummary, TaskRecord};
use faas_policies::{Cfs, Fifo};
use faas_simcore::par;
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

use super::{Params, Workload, PAPER_CORES};
use crate::marks::{Marked, Marks};
use crate::outputs::{MachineOut, Outputs, Policy, Quantiles};
use crate::spans::{Layer, Spans};

/// The run whose quantiles and bill are the workload's end-to-end numbers.
const SUBJECT: Policy = Policy::Hybrid;

pub struct EnclaveW2 {
    pub p: Params,
}

/// One of Table I's schedulers, built before the trace.
enum Agent {
    Fifo(Fifo),
    Cfs(Cfs),
    Hybrid(Box<HybridScheduler>),
}

/// Table I's agents, in [`Policy::ALL`] order.
fn agents() -> Vec<Agent> {
    vec![
        Agent::Fifo(Fifo::new()),
        Agent::Cfs(Cfs::with_cores(PAPER_CORES)),
        Agent::Hybrid(Box::new(HybridScheduler::new(HybridConfig::paper_25_25()))),
    ]
}

/// One run through `Simulation::run_slim`, as `faas-bench`'s
/// `run_policy_slim` makes it, with the agent marking into `marks`.
fn simulate(
    agent: Agent,
    machine: &MachineConfig,
    specs: &[TaskSpec],
    marks: &Marks,
) -> Result<SlimReport, SimError> {
    fn kernel<P: Scheduler>(
        machine: &MachineConfig,
        specs: &[TaskSpec],
        policy: P,
        marks: &Marks,
    ) -> Result<SlimReport, SimError> {
        Simulation::new(machine.clone(), specs, Marked::new(policy, marks)).run_slim()
    }
    match agent {
        Agent::Fifo(p) => kernel(machine, specs, p, marks),
        Agent::Cfs(p) => kernel(machine, specs, p, marks),
        Agent::Hybrid(p) => kernel(machine, specs, *p, marks),
    }
}

/// The calls `Simulation::run_slim` makes, each inside a span.
fn simulate_traced(
    agent: Agent,
    machine: &MachineConfig,
    specs: &[TaskSpec],
    sp: &mut Spans,
) -> Result<SlimReport, SimError> {
    fn kernel<P: Scheduler>(
        sp: &mut Spans,
        machine: &MachineConfig,
        specs: &[TaskSpec],
        policy: P,
    ) -> Result<SlimReport, SimError> {
        let run = sp.time(Layer::Kernel, "MachineRun::new", || {
            MachineRun::new(machine.clone(), specs, policy)
        });
        sp.time(Layer::Kernel, "MachineRun::run_slim", || run.run_slim())
    }
    match agent {
        Agent::Fifo(p) => kernel(sp, machine, specs, p),
        Agent::Cfs(p) => kernel(sp, machine, specs, p),
        Agent::Hybrid(p) => kernel(sp, machine, specs, *p),
    }
}

type Run = (SlimReport, Vec<TaskRecord>);

impl EnclaveW2 {
    fn outputs(synthesized: usize, runs: &[Run], rows: &[(RunSummary, f64)]) -> Outputs {
        let machines: Vec<MachineOut> = Policy::ALL
            .iter()
            .zip(runs)
            .zip(rows)
            .map(|((&policy, (slim, records)), &(_, cost))| {
                MachineOut::of_slim(policy, slim, records.len(), cost)
            })
            .collect();
        let subject = Policy::ALL
            .iter()
            .position(|&p| p == SUBJECT)
            .expect("the subject is one of Table I's policies");
        Outputs {
            synthesized: synthesized as u64,
            arrived: (synthesized * runs.len()) as u64,
            machines,
            front: None,
            subject: Quantiles::of(&rows[subject].0),
            cost_bits: rows[subject].1.to_bits(),
            sketch_tuples: 0,
        }
    }
}

impl Workload for EnclaveW2 {
    fn run(&self, marks: &Marks) -> Result<Outputs, SimError> {
        let width = self.p.width;
        let trace_cfg = TraceConfig::w2();
        let machine = self.p.paper_machine();
        let agents = agents();
        marks.mark();
        let trace = AzureTrace::generate_sharded(&trace_cfg, width);
        let specs = trace.to_task_specs_sharded(width);
        let runs = par::par_map_with(width, agents, |_, agent| {
            marks.mark();
            let slim = simulate(agent, &machine, &specs, marks)?;
            let records = records_from_tasks(&slim.tasks);
            Ok((slim, records))
        })
        .into_iter()
        .collect::<Result<Vec<Run>, SimError>>()?;
        marks.mark();
        let price = PriceModel::duration_only();
        let rows: Vec<(RunSummary, f64)> = runs
            .iter()
            .map(|(_, records)| (RunSummary::compute(records), price.workload_cost(records)))
            .collect();
        Ok(Self::outputs(trace.len(), &runs, &rows))
    }

    fn run_traced(&self, sp: &mut Spans) -> Result<Outputs, SimError> {
        let width = self.p.width;
        let trace_cfg = TraceConfig::w2();
        let machine = self.p.paper_machine();
        let agents = agents();
        let trace = sp.time(Layer::Trace, "AzureTrace::generate_sharded", || {
            AzureTrace::generate_sharded(&trace_cfg, width)
        });
        let specs = sp.time(Layer::Trace, "AzureTrace::to_task_specs_sharded", || {
            trace.to_task_specs_sharded(width)
        });
        let runs = sp
            .fan(width, agents, |_, agent, local| {
                let slim = simulate_traced(agent, &machine, &specs, local)?;
                let records = local.time(Layer::Metrics, "records_from_tasks", || {
                    records_from_tasks(&slim.tasks)
                });
                Ok((slim, records))
            })
            .into_iter()
            .collect::<Result<Vec<Run>, SimError>>()?;
        let price = PriceModel::duration_only();
        let rows: Vec<(RunSummary, f64)> = runs
            .iter()
            .map(|(_, records)| {
                let summary = sp.time(Layer::Metrics, "RunSummary::compute", || {
                    RunSummary::compute(records)
                });
                let cost = sp.time(Layer::Pricing, "PriceModel::workload_cost", || {
                    price.workload_cost(records)
                });
                (summary, cost)
            })
            .collect();
        Ok(Self::outputs(trace.len(), &runs, &rows))
    }

    fn check(&self, out: &Outputs) -> Result<(), String> {
        for m in &out.machines {
            if m.completed != out.synthesized || m.cancelled != 0 {
                return Err(format!(
                    "{} completed {} of {} specs and cancelled {}",
                    m.policy.label(),
                    m.completed,
                    out.synthesized,
                    m.cancelled
                ));
            }
        }
        Ok(())
    }
}
