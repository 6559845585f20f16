//! # serverless-hybrid-sched
//!
//! A from-scratch Rust reproduction of *“In Serverless, OS Scheduler
//! Choice Costs Money: A Hybrid Scheduling Approach for Cheaper FaaS”*
//! (Zhao, Weng, van Nieuwpoort, Uta — MIDDLEWARE 2024).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on one crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `faas-simcore` | virtual time, event queue, seeded RNG |
//! | [`kernel`] | `faas-kernel` | the simulated ghOSt-style OS substrate |
//! | [`policies`] | `faas-policies` | FIFO (plain, limit, RR, Shinjuku), CFS, EDF, SFS, MLFQ |
//! | [`hybrid`] | `hybrid-scheduler` | **the paper's hybrid FIFO+CFS scheduler** |
//! | [`trace`] | `azure-trace` | synthetic Azure-like workloads + calibration |
//! | [`metrics`] | `faas-metrics` | execution/response/turnaround, CDFs |
//! | [`pricing`] | `lambda-pricing` | AWS-Lambda-style cost model |
//! | [`firecracker`] | `microvm-sim` | microVM fleets with memory admission |
//! | [`cluster`] | `faas-cluster` | multi-machine fleets with front-end dispatch |
//! | [`host`] | `faas-host` | live-Linux backend (affinity + SCHED_FIFO) |
//!
//! ## Quickstart
//!
//! ```
//! use serverless_hybrid_sched::prelude::*;
//!
//! // Two minutes of Azure-like load (downscaled), on the paper's 25+25
//! // core split with the 1,633 ms FIFO limit.
//! let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(50));
//! let cfg = HybridConfig::paper_25_25();
//! let report = Simulation::new(
//!     MachineConfig::new(cfg.total_cores()),
//!     trace.to_task_specs(),
//!     HybridScheduler::new(cfg),
//! )
//! .run_slim()
//! .unwrap();
//! let records = records_from_tasks(&report.tasks);
//! let usd = PriceModel::duration_only().workload_cost(&records);
//! assert!(usd > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use azure_trace as trace;
pub use faas_cluster as cluster;
pub use faas_host as host;
pub use faas_kernel as kernel;
pub use faas_metrics as metrics;
pub use faas_policies as policies;
pub use faas_simcore as simcore;
pub use hybrid_scheduler as hybrid;
pub use lambda_pricing as pricing;
pub use microvm_sim as firecracker;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::hybrid::{HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy};
    pub use crate::kernel::{
        CostModel, InterferenceConfig, Machine, MachineConfig, Scheduler, Simulation, SlimReport,
        TaskSpec,
    };
    pub use crate::metrics::{records_from_tasks, DurationCdf, Metric, RunSummary, TaskRecord};
    pub use crate::policies::{Cfs, Edf, Fifo};
    pub use crate::pricing::PriceModel;
    pub use crate::simcore::{SimDuration, SimTime};
    pub use crate::trace::{AzureTrace, TraceConfig};
}
