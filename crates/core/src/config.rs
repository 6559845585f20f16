//! Configuration of the hybrid scheduler.

use faas_simcore::SimDuration;

/// How the FIFO preemption time limit is chosen (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeLimitPolicy {
    /// A constant limit, e.g. the paper's 1,633 ms (the offline p90 of the
    /// sampled workload).
    Fixed(SimDuration),
    /// Track a percentile of the sliding window of recent task durations.
    Adaptive {
        /// Percentile fraction in `(0, 1]`, e.g. `0.95` (best in Fig. 15).
        percentile: f64,
        /// Limit used until the window has collected enough samples.
        initial: SimDuration,
    },
}

impl TimeLimitPolicy {
    /// The paper's default fixed limit: 1,633 ms (p90 of the sampled trace).
    pub fn paper_default() -> Self {
        TimeLimitPolicy::Fixed(SimDuration::from_millis(1_633))
    }
}

/// How migrated tasks are placed across the CFS-side per-core queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CfsPlacement {
    /// The paper's choice (§IV-A): spread round-robin.
    #[default]
    RoundRobin,
    /// Ablation: always the currently shortest queue.
    LeastLoaded,
}

/// Configuration of the CPU-group rightsizing controller (§IV-B, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RightsizingConfig {
    /// Trailing window over which group utilization is averaged.
    pub window: SimDuration,
    /// Minimum utilization gap that triggers a core migration.
    pub threshold: f64,
    /// Minimum spacing between two migrations.
    pub cooldown: SimDuration,
    /// Neither group ever shrinks below this many cores.
    pub min_cores: usize,
}

impl Default for RightsizingConfig {
    fn default() -> Self {
        RightsizingConfig {
            window: SimDuration::from_secs(2),
            threshold: 0.15,
            cooldown: SimDuration::from_millis(500),
            min_cores: 1,
        }
    }
}

/// Full configuration of the [`HybridScheduler`](crate::HybridScheduler).
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Cores initially assigned to the FIFO (short-task) group.
    pub fifo_cores: usize,
    /// Cores initially assigned to the CFS (long-task) group.
    pub cfs_cores: usize,
    /// FIFO preemption limit policy.
    pub time_limit: TimeLimitPolicy,
    /// Size of the sliding window of recent durations (paper: 100).
    pub window_size: usize,
    /// Minimum samples before an adaptive limit kicks in.
    pub min_samples: usize,
    /// Floor for any adaptive limit (guards against degenerate windows).
    pub min_limit: SimDuration,
    /// CFS parameters for the long-task group.
    pub sched_latency: SimDuration,
    /// CFS minimum slice for the long-task group.
    pub min_granularity: SimDuration,
    /// Enable dynamic CPU-group rightsizing.
    pub rightsizing: Option<RightsizingConfig>,
    /// Monitoring tick: the period of the rightsizing decisions. Armed
    /// only when [`HybridConfig::rightsizing`] is set.
    pub tick: SimDuration,
    /// Placement of migrated tasks on the CFS side.
    pub cfs_placement: CfsPlacement,
    /// Honor [`PlacementHint::Background`](faas_kernel::PlacementHint):
    /// background-hinted tasks (e.g. microVM VMM/I-O threads) skip the
    /// FIFO stage and go straight to the CFS group — the paper's §VII-4
    /// future work.
    pub honor_hints: bool,
}

impl HybridConfig {
    /// The paper's main configuration: a 25/25 split with the fixed
    /// 1,633 ms limit (Figs. 11–14).
    pub fn paper_25_25() -> Self {
        HybridConfig::split(25, 25)
    }

    /// A `fifo`/`cfs` split with paper defaults otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either group is empty.
    pub fn split(fifo: usize, cfs: usize) -> Self {
        assert!(fifo > 0 && cfs > 0, "both core groups must be non-empty");
        HybridConfig {
            fifo_cores: fifo,
            cfs_cores: cfs,
            time_limit: TimeLimitPolicy::paper_default(),
            window_size: 100,
            min_samples: 10,
            min_limit: SimDuration::from_millis(1),
            sched_latency: SimDuration::from_millis(24),
            min_granularity: SimDuration::from_millis(3),
            rightsizing: None,
            tick: SimDuration::from_millis(100),
            cfs_placement: CfsPlacement::RoundRobin,
            honor_hints: false,
        }
    }

    /// Total number of cores the scheduler expects the machine to have.
    pub fn total_cores(&self) -> usize {
        self.fifo_cores + self.cfs_cores
    }

    /// Sets the time-limit policy.
    pub fn with_time_limit(mut self, policy: TimeLimitPolicy) -> Self {
        self.time_limit = policy;
        self
    }

    /// Enables rightsizing with the given controller configuration.
    pub fn with_rightsizing(mut self, cfg: RightsizingConfig) -> Self {
        self.rightsizing = Some(cfg);
        self
    }

    /// Selects the CFS-side placement strategy (ablation knob).
    pub fn with_cfs_placement(mut self, placement: CfsPlacement) -> Self {
        self.cfs_placement = placement;
        self
    }

    /// Enables background-hint routing (§VII-4 future work).
    pub fn with_hint_routing(mut self) -> Self {
        self.honor_hints = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = HybridConfig::paper_25_25();
        assert_eq!(c.total_cores(), 50);
        assert_eq!(
            c.time_limit,
            TimeLimitPolicy::Fixed(SimDuration::from_millis(1_633))
        );
        assert_eq!(c.window_size, 100);
        assert!(c.rightsizing.is_none());
        assert_eq!(c.cfs_placement, CfsPlacement::RoundRobin);
        assert!(!c.honor_hints, "hint routing is an opt-in extension");
    }

    #[test]
    fn builders_compose() {
        let c = HybridConfig::split(10, 40)
            .with_time_limit(TimeLimitPolicy::Adaptive {
                percentile: 0.95,
                initial: SimDuration::from_millis(1_633),
            })
            .with_rightsizing(RightsizingConfig::default());
        assert_eq!(c.fifo_cores, 10);
        assert!(matches!(c.time_limit, TimeLimitPolicy::Adaptive { .. }));
        assert!(c.rightsizing.is_some());
    }

    #[test]
    #[should_panic]
    fn empty_group_rejected() {
        let _ = HybridConfig::split(0, 50);
    }
}
