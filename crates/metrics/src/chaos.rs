//! Chaos-and-elasticity counters for the dispatch-tier fault layer.
//!
//! The cluster front end can inject deterministic faults (machine
//! crashes, straggler windows, interference storms — see
//! `faas-cluster`'s `chaos` module) and run an autoscaler that grows
//! and shrinks the active fleet on router-observable load. This struct
//! is the ledger of what the chaos layer did and what it cost: fault
//! events delivered, re-dispatch retries and abandonments, scaling
//! actions, and SLO-recovery times after each crash epoch. It is
//! attached to the [`crate::FleetSummary`] of either run path, next to
//! [`crate::OverloadStats`]' shed ledger.
//!
//! All counters are folded in arrival order by the serial front end, so
//! they are byte-identical at any fan width and independent of how the
//! trace was chunked.

use faas_simcore::SimDuration;

/// Counters of fault-injection and autoscaling activity at the cluster
/// front end. All-zero (the [`Default`]) when no chaos is configured or
/// the fault plan is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosStats {
    /// Machine crashes delivered from the fault plan.
    pub crashes: u64,
    /// Straggler windows begun (a machine's effective core speed
    /// degraded for an interval): counted as the front end's clock
    /// reaches each window's start, and the windows after the last
    /// arrival when the front end finishes.
    pub stragglers: u64,
    /// Interference-storm windows compiled into machine configs.
    pub storms: u64,
    /// Dispatched invocations whose kernel work was inflated by an
    /// active straggler window on the chosen machine.
    pub straggled_tasks: u64,
    /// Re-dispatch attempts enqueued after a crash doomed an in-flight
    /// attempt. A single invocation caught by several crashes counts
    /// once per wasted attempt.
    pub retries: u64,
    /// Invocations given up on after exhausting the retry budget. These
    /// never complete and never reach a machine again.
    pub abandoned: u64,
    /// Autoscaler scale-up actions (one machine activated each).
    pub scale_ups: u64,
    /// Autoscaler scale-down actions (one machine drained out each).
    pub scale_downs: u64,
    /// Peak number of simultaneously active machines under the
    /// autoscaler; stays zero when no autoscaler runs (the fleet size is
    /// fixed and reported elsewhere).
    pub peak_active: u64,
    /// Crash epochs whose SLO recovery completed: the fleet's worst
    /// router-estimated queue wait dropped back under the configured
    /// SLO after the crash.
    pub recoveries: u64,
    /// Sum of the SLO-recovery times over all recovered crash epochs.
    pub recovery_total: SimDuration,
    /// Worst single SLO-recovery time.
    pub recovery_max: SimDuration,
    /// Crash epochs still above the SLO when the run ended.
    pub unrecovered: u64,
    /// Dollar cost of churn: wasted work on crash-doomed attempts plus
    /// the forfeited value of abandoned invocations, folded
    /// left-to-right in arrival order (deterministic f64 fold). Zero
    /// when the chaos config has no price model attached.
    pub churn_cost_usd: f64,
}

impl ChaosStats {
    /// Mean SLO-recovery time over recovered crash epochs
    /// (`SimDuration::ZERO` when nothing recovered).
    pub fn mean_recovery(&self) -> SimDuration {
        if self.recoveries == 0 {
            SimDuration::ZERO
        } else {
            self.recovery_total / self.recoveries
        }
    }

    /// `true` if the chaos layer never did anything — the signature of
    /// an empty fault plan with no autoscaler (or no chaos at all).
    pub fn is_zero(&self) -> bool {
        self.crashes == 0
            && self.stragglers == 0
            && self.storms == 0
            && self.straggled_tasks == 0
            && self.retries == 0
            && self.abandoned == 0
            && self.scale_ups == 0
            && self.scale_downs == 0
            && self.recoveries == 0
            && self.unrecovered == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = ChaosStats::default();
        assert!(s.is_zero());
        assert_eq!(s.mean_recovery(), SimDuration::ZERO);
        assert_eq!(s.churn_cost_usd, 0.0);
    }

    #[test]
    fn mean_recovery_divides_by_recovered_epochs() {
        let s = ChaosStats {
            crashes: 3,
            recoveries: 2,
            recovery_total: SimDuration::from_secs(10),
            recovery_max: SimDuration::from_secs(7),
            unrecovered: 1,
            ..ChaosStats::default()
        };
        assert_eq!(s.mean_recovery(), SimDuration::from_secs(5));
        assert!(!s.is_zero());
    }

    #[test]
    fn scaling_alone_breaks_is_zero() {
        let s = ChaosStats {
            scale_ups: 1,
            ..ChaosStats::default()
        };
        assert!(!s.is_zero(), "an autoscaler that acted is not a no-op");
    }
}
