//! Marks a run passes at fixed points of its work. Every repeat of a
//! workload does the same simulated work between the same two marks, so
//! each stretch between two marks can be timed across repeats and its
//! fastest time kept.

use std::sync::Mutex;
use std::time::Instant;

use faas_cluster::dispatch::{Dispatch, DispatchCtx};
use faas_kernel::{CoreId, Machine, Scheduler, TaskId};
use faas_simcore::SimDuration;

/// Arrivals a [`Marked`] agent, or dispatches a [`Marked`] router, sees
/// between two of its marks.
const CALLS_PER_MARK: u32 = 1024;

/// The instants a run passed its marks, in order.
#[derive(Debug, Default)]
pub struct Marks(Mutex<Vec<Instant>>);

impl Marks {
    /// Marks the present instant.
    pub fn mark(&self) {
        let now = Instant::now();
        self.0.lock().expect("marks poisoned").push(now);
    }

    /// The marks passed so far.
    pub fn into_vec(self) -> Vec<Instant> {
        self.0.into_inner().expect("marks poisoned")
    }
}

/// The fastest time, over the repeats, of each stretch between two
/// consecutive marks.
#[derive(Debug, Default)]
pub struct Stretches(Vec<f64>);

impl Stretches {
    /// Folds in one repeat's marks, which must be as many as the first
    /// repeat's.
    pub fn add(&mut self, marks: &[Instant]) -> Result<(), String> {
        let n = marks.len().saturating_sub(1);
        if self.0.is_empty() {
            self.0 = vec![f64::INFINITY; n];
        } else if self.0.len() != n {
            return Err(format!(
                "a repeat passed {} marks, the first repeat {}",
                n + 1,
                self.0.len() + 1
            ));
        }
        for (best, pair) in self.0.iter_mut().zip(marks.windows(2)) {
            *best = best.min(pair[1].duration_since(pair[0]).as_secs_f64());
        }
        Ok(())
    }

    /// The fastest time of stretch `k`, in seconds.
    pub fn get(&self, k: usize) -> f64 {
        self.0[k]
    }

    /// The sum of the fastest stretch times: the run's time with every
    /// stretch at its fastest, in seconds.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// How many stretches a repeat has.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A scheduler agent or dispatch policy that marks every
/// [`CALLS_PER_MARK`]th arrival or dispatch and otherwise forwards every
/// call unchanged.
pub struct Marked<'a, T> {
    inner: T,
    calls: u32,
    marks: &'a Marks,
}

impl<'a, T> Marked<'a, T> {
    /// `inner`, marking into `marks`.
    pub fn new(inner: T, marks: &'a Marks) -> Self {
        Marked {
            inner,
            calls: 0,
            marks,
        }
    }

    fn count(&mut self) {
        self.calls += 1;
        if self.calls == CALLS_PER_MARK {
            self.calls = 0;
            self.marks.mark();
        }
    }
}

impl<D: Dispatch> Dispatch for Marked<'_, D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        self.count();
        self.inner.pick(ctx)
    }
}

impl<P: Scheduler> Scheduler for Marked<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        self.count();
        self.inner.on_task_new(m, task);
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.inner.on_slice_expired(m, task, core);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        self.inner.on_core_idle(m, core);
    }

    fn on_task_finished(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.inner.on_task_finished(m, task, core);
    }

    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.inner.on_interference_preempt(m, task, core);
    }

    fn on_tick(&mut self, m: &mut Machine) {
        self.inner.on_tick(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stretches_keep_each_stretch_at_its_fastest() {
        let t = Instant::now();
        let at = |ms: &[u64]| -> Vec<Instant> {
            ms.iter().map(|&m| t + Duration::from_millis(m)).collect()
        };
        let mut s = Stretches::default();
        s.add(&at(&[0, 10, 30])).unwrap();
        s.add(&at(&[0, 20, 25])).unwrap();
        assert_eq!(s.len(), 2);
        assert!((s.get(0) - 0.010).abs() < 1e-9);
        assert!((s.total() - 0.015).abs() < 1e-9);
        assert!(s.add(&at(&[0, 5])).is_err());
    }
}
