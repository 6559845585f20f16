//! # faas-simcore
//!
//! The deterministic discrete-event simulation engine underneath the
//! `serverless-hybrid-sched` workspace.
//!
//! This crate deliberately knows nothing about CPUs, tasks or schedulers —
//! it provides exactly these things:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution virtual clock;
//! * [`EventQueue`] — a future-event list with deterministic tie-breaking
//!   (a [`MinHeap4`] keyed on instant, then insertion order);
//! * [`MinHeap4`] — the dense 4-ary min-heap backing the event queue and
//!   the front end's heaps;
//! * [`SortedDeque`] — the ascending `VecDeque` backing the CFS run
//!   queues (O(1) at either end, appends for keys not below the back);
//! * [`IndexedMinHeap`] — the slot-addressed variant (O(log n) re-key /
//!   removal by stable slot) backing the cluster dispatch tier;
//! * [`FxHashMap`] — a `HashMap` under a fast unkeyed hasher for the
//!   dispatch tier's small integer keys;
//! * [`SimRng`] — a seeded random generator with the samplers used by the
//!   Azure-like trace synthesizer;
//! * [`check`] — a miniature property-test harness (the workspace's
//!   offline stand-in for `proptest`);
//! * [`par`] — a scoped-thread fan-out for independent deterministic jobs
//!   (`BENCH_THREADS`-aware, results always in input order).
//!
//! # Examples
//!
//! A tiny simulation loop:
//!
//! ```
//! use faas_simcore::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! let mut now = SimTime::ZERO;
//! q.schedule(now + SimDuration::from_millis(1), Ev::Tick(1));
//! q.schedule(now + SimDuration::from_millis(2), Ev::Tick(2));
//!
//! let mut fired = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     now = t; // virtual time only ever moves forward
//!     fired.push(ev);
//! }
//! assert_eq!(fired, vec![Ev::Tick(1), Ev::Tick(2)]);
//! assert_eq!(now, SimTime::from_millis(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod events;
mod fxhash;
mod heap;
mod idxheap;
pub mod par;
mod rng;
mod sorted;
mod time;

pub use events::EventQueue;
pub use fxhash::{FxHashMap, FxHasher};
pub use heap::MinHeap4;
pub use idxheap::IndexedMinHeap;
pub use rng::SimRng;
pub use sorted::SortedDeque;
pub use time::{SimDuration, SimTime};
