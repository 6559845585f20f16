//! The node-health feedback ledger of the dispatch tier.
//!
//! [`HealthStats`] counts what the front end's health-feedback layer did
//! with the per-machine latency signals it tracked: outlier ejections and
//! the half-open probes that re-admitted machines, speculative hedged
//! requests (and the dollars their losing attempts wasted), and the
//! backoff delays injected into crash re-dispatch. Like
//! [`ChaosStats`](crate::ChaosStats), every counter is maintained in the
//! serial front-end fold, so the ledger is byte-identical at any fan
//! width or chunk size. [`MachineHealth`] is the per-machine view the
//! scenario tables print next to each machine's summary.

use faas_simcore::SimDuration;

/// What the health-feedback layer ejected, probed, hedged and delayed.
/// All-zero when the front end ran without a health config (or with one
/// whose ejection/hedging/backoff features never fired).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthStats {
    /// Machines removed from the candidate set as latency outliers
    /// (EWMA past the ejection threshold) or after a crash.
    pub ejections: u64,
    /// Ejected machines returned to the candidate set after a
    /// successful half-open probe.
    pub readmissions: u64,
    /// Half-open probe dispatches sent to machines whose probation
    /// window expired.
    pub probes: u64,
    /// Probes that died with their machine (a crash doomed the probe),
    /// sending the machine back into ejection.
    pub probe_failures: u64,
    /// Speculative second attempts booked for requests whose estimated
    /// completion passed the tracked tail quantile.
    pub hedges: u64,
    /// Hedges whose speculative attempt was estimated to finish first
    /// (the original booking became the cancelled loser).
    pub hedges_won: u64,
    /// Hedges whose speculative attempt lost (cancelled at the
    /// original booking's estimated completion) or died with a crash.
    pub hedges_lost: u64,
    /// Lost hedges whose copy a crash doomed at dispatch: the copy reached
    /// no kernel, so it is neither completed nor cancelled. Closes the
    /// attempt ledger: arrived + hedges = completed + shed + abandoned +
    /// kernel-cancelled + doomed copies.
    pub doomed_copies: u64,
    /// Crash re-dispatches that were delayed by exponential backoff
    /// instead of re-entering at the crash instant.
    pub backoff_retries: u64,
    /// Total backoff delay injected across all delayed re-dispatches.
    pub backoff_delay_total: SimDuration,
    /// Dollars billed for the losing side of every hedge — the price of
    /// the speculation (all-zero without a hedge tariff).
    pub hedge_cost_usd: f64,
}

impl HealthStats {
    /// `true` if the health layer never changed anything: no ejections,
    /// probes, hedges or backoff delays, and no hedge dollars.
    pub fn is_zero(&self) -> bool {
        self.ejections == 0
            && self.readmissions == 0
            && self.probes == 0
            && self.probe_failures == 0
            && self.hedges == 0
            && self.hedges_won == 0
            && self.hedges_lost == 0
            && self.doomed_copies == 0
            && self.backoff_retries == 0
            && self.backoff_delay_total == SimDuration::ZERO
            && self.hedge_cost_usd == 0.0
    }
}

/// Per-machine health columns for the cluster summaries: the signal the
/// tracker ended the run with, next to how often the machine was ejected
/// and for how long it sat outside the candidate set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineHealth {
    /// The machine's response-time EWMA at the end of the run (zero if
    /// no completion report ever arrived for it).
    pub ewma: SimDuration,
    /// Completion reports folded into the EWMA.
    pub samples: u64,
    /// Times this machine was ejected from the candidate set.
    pub ejections: u64,
    /// Cumulative wall-clock the machine spent ejected (its "straggled
    /// minutes" from the router's point of view).
    pub straggled: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        assert!(HealthStats::default().is_zero());
        assert_eq!(MachineHealth::default().ewma, SimDuration::ZERO);
    }

    #[test]
    fn any_field_breaks_is_zero() {
        let cases = [
            HealthStats {
                ejections: 1,
                ..Default::default()
            },
            HealthStats {
                hedges: 1,
                ..Default::default()
            },
            HealthStats {
                doomed_copies: 1,
                ..Default::default()
            },
            HealthStats {
                backoff_delay_total: SimDuration::from_millis(1),
                ..Default::default()
            },
            HealthStats {
                hedge_cost_usd: 0.1,
                ..Default::default()
            },
        ];
        for s in cases {
            assert!(!s.is_zero());
        }
    }
}
