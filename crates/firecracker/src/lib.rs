//! # microvm-sim
//!
//! A Firecracker-like microVM layer over the simulated kernel, reproducing
//! the paper's §VI-E experiment: every function invocation launches a
//! microVM whose *threads* (vCPU + VMM/I-O) all enter the scheduling
//! enclave, the host's memory caps how many VMs can be resident, and
//! launches beyond the cap fail ("we run out of resources").
//!
//! * [`FirecrackerConfig`] — boot cost, per-VM thread set, memory
//!   overheads, host capacity;
//! * [`LaunchPlan`] — scheduler-independent memory admission with a
//!   work-conserving backlog estimator (see module docs for why);
//! * [`expand_to_specs`] / [`vm_records`] — thread-group expansion and
//!   per-VM result aggregation;
//! * [`run_fleet`] — one-call convenience: plan, expand, simulate under a
//!   policy, aggregate.
//!
//! ```
//! use azure_trace::{AzureTrace, TraceConfig};
//! use faas_policies::Fifo;
//! use microvm_sim::{run_fleet, FirecrackerConfig};
//!
//! let trace = AzureTrace::generate(&TraceConfig::firecracker().downscaled(100));
//! let outcome = run_fleet(&trace, &FirecrackerConfig::default(), 8, Fifo::new())?;
//! assert_eq!(outcome.plan.launched(), outcome.vm_records.len());
//! # Ok::<(), faas_kernel::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod plan;

pub use fleet::{expand_to_specs, vm_records};
pub use plan::{BootKind, FirecrackerConfig, LaunchOutcome, LaunchPlan, PlannedVm};

use azure_trace::AzureTrace;
use faas_kernel::{MachineConfig, Scheduler, SimError, Simulation};
use faas_metrics::TaskRecord;

/// Result of a whole-fleet run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The admission plan (including failed launches).
    pub plan: LaunchPlan,
    /// One aggregated record per successfully completed VM.
    pub vm_records: Vec<TaskRecord>,
}

/// Plans, expands and simulates a microVM fleet under `policy` on a
/// machine with `cores` cores.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulation.
pub fn run_fleet<P: Scheduler>(
    trace: &AzureTrace,
    cfg: &FirecrackerConfig,
    cores: usize,
    policy: P,
) -> Result<FleetOutcome, SimError> {
    let plan = LaunchPlan::admit(trace.invocations(), cfg);
    let (specs, _) = expand_to_specs(&plan, cfg);
    let report = Simulation::new(MachineConfig::new(cores), specs, policy).run_slim()?;
    let vm_records = vm_records(&plan, &report.tasks);
    Ok(FleetOutcome { plan, vm_records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use azure_trace::TraceConfig;
    use faas_policies::{Cfs, Fifo};
    use hybrid_scheduler::{HybridConfig, HybridScheduler, TimeLimitPolicy};

    fn tiny_trace() -> AzureTrace {
        AzureTrace::generate(&TraceConfig::firecracker().downscaled(50))
    }

    #[test]
    fn fleet_runs_under_fifo() {
        let out = run_fleet(&tiny_trace(), &FirecrackerConfig::default(), 8, Fifo::new()).unwrap();
        assert_eq!(out.plan.failed(), 0, "big host, small fleet");
        assert_eq!(out.vm_records.len(), out.plan.launched());
    }

    #[test]
    fn fleet_runs_under_cfs_and_hybrid() {
        let cfs = run_fleet(
            &tiny_trace(),
            &FirecrackerConfig::default(),
            8,
            Cfs::with_cores(8),
        )
        .unwrap();
        let hcfg = HybridConfig::split(4, 4).with_time_limit(TimeLimitPolicy::Fixed(
            faas_simcore::SimDuration::from_millis(1_633),
        ));
        let hybrid = run_fleet(
            &tiny_trace(),
            &FirecrackerConfig::default(),
            8,
            HybridScheduler::new(hcfg),
        )
        .unwrap();
        assert_eq!(
            cfs.vm_records.len(),
            hybrid.vm_records.len(),
            "same admitted fleet"
        );
    }

    #[test]
    fn boot_overhead_inflates_vm_cpu_time() {
        let cfg = FirecrackerConfig::default();
        let out = run_fleet(&tiny_trace(), &cfg, 8, Fifo::new()).unwrap();
        for (r, vm) in out.vm_records.iter().zip(out.plan.vms()) {
            assert!(
                r.cpu_time >= vm.invocation.duration + cfg.boot_cpu,
                "vm cpu time includes guest boot"
            );
        }
    }
}
