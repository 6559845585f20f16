//! # faas-policies
//!
//! The baseline OS scheduling policies the paper compares against
//! (§II-C/§III-C and the Fig. 23 scheduler zoo), implemented as
//! [`Scheduler`](faas_kernel::Scheduler) agents over the simulated
//! [`Machine`](faas_kernel::Machine):
//!
//! * [`Fifo`] — one global queue, optionally time-sliced: run to
//!   completion ([`Fifo::new`]), the paper's "FIFO 100ms" preemption
//!   limit ([`Fifo::with_limit`], §II-D), Round-Robin
//!   ([`Fifo::round_robin`]) and Shinjuku-like small-quantum preemption
//!   after Kaffes et al. \[42\] ([`Fifo::shinjuku`]).
//! * [`Cfs`] — the Linux default: per-core vruntime queues, latency-target
//!   slices, work stealing, wakeup preemption.
//! * [`Edf`] — earliest-deadline-first with arrival-time preemption.
//! * [`Sfs`] — least-attained-service, approximating SFS \[25\] (the
//!   paper's closest related work).
//! * [`Mlfq`] — multi-level feedback queue with priority boost \[37\].
//!
//! [`CfsRunQueues`] is the CFS mechanism itself (per-core vruntime queues
//! whose member cores can join and leave, slices, steal and balance).
//! [`Cfs`] runs it over every core; the hybrid FIFO+CFS scheduler — the
//! paper's contribution, in the `hybrid-scheduler` crate — runs it over
//! its long-task core group.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfs;
mod edf;
mod fifo;
mod mlfq;
mod sfs;

pub use cfs::{Cfs, CfsParams, CfsRunQueues};
pub use edf::Edf;
pub use fifo::Fifo;
pub use mlfq::{Mlfq, MlfqParams};
pub use sfs::Sfs;
