//! # hybrid-scheduler
//!
//! The paper's contribution: a **hybrid two-level scheduling approach** for
//! FaaS that runs short functions to completion under centralized FIFO on
//! one CPU-core group and hands functions that exceed an adaptive time
//! limit to a second group running CFS (Zhao et al., *In Serverless, OS
//! Scheduler Choice Costs Money*, MIDDLEWARE 2024).
//!
//! The crate provides:
//!
//! * [`HybridScheduler`] — the agent itself (§IV-A, Fig. 7). Its FIFO
//!   group is one global queue and its CFS group runs
//!   [`faas_policies::CfsRunQueues`], the same run-queue type as
//!   `faas_policies::Cfs`, over the group's current member cores;
//! * [`TimeLimitPolicy`] / [`SlidingWindow`] — fixed or percentile-adaptive
//!   FIFO preemption limits over the last 100 task durations (§IV-B);
//! * [`RightsizingConfig`] / [`RightsizingController`] — utilization-driven
//!   CPU-group rightsizing with the Fig. 8 five-step core-migration
//!   protocol, recorded as [`MigrationReport`]s.
//!
//! ```
//! use faas_kernel::{MachineConfig, Simulation, TaskSpec};
//! use faas_simcore::{SimDuration, SimTime};
//! use hybrid_scheduler::{HybridConfig, HybridScheduler};
//!
//! // The paper's 25 FIFO + 25 CFS configuration with the 1,633 ms limit.
//! let cfg = HybridConfig::paper_25_25();
//! let specs: Vec<TaskSpec> = (0..100)
//!     .map(|i| TaskSpec::function(SimTime::from_millis(i), SimDuration::from_millis(40), 128))
//!     .collect();
//! let report = Simulation::new(
//!     MachineConfig::new(cfg.total_cores()),
//!     specs,
//!     HybridScheduler::new(cfg),
//! )
//! .run_slim()?;
//! assert!(report.tasks.iter().all(|t| t.completion().is_some()));
//! # Ok::<(), faas_kernel::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod hybrid;
mod rightsizing;
mod window;

pub use config::{CfsPlacement, HybridConfig, RightsizingConfig, TimeLimitPolicy};
pub use hybrid::{Group, HybridScheduler};
pub use rightsizing::{MigrationDirection, MigrationReport, MigrationStep, RightsizingController};
pub use window::SlidingWindow;
