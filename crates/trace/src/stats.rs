//! Trace summary statistics — the numbers a provider would sanity-check a
//! workload with before replaying it (and the quantities behind Fig. 2's
//! two panels).

use faas_simcore::{nearest_rank, SimDuration};

use crate::workload::AzureTrace;

/// Aggregate statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of invocations.
    pub invocations: usize,
    /// Horizon from first to last arrival.
    pub span: SimDuration,
    /// Mean inter-arrival time.
    pub mean_iat: SimDuration,
    /// Coefficient of variation of inter-arrival times (1.0 ≈ Poisson,
    /// larger = burstier).
    pub iat_cv: f64,
    /// Mean nominal duration.
    pub mean_duration: SimDuration,
    /// p90 of nominal durations.
    pub p90_duration: SimDuration,
    /// Total nominal work.
    pub total_work: SimDuration,
    /// Mean arrival rate over the span, invocations per second.
    pub rate_per_sec: f64,
    /// Offered load against `cores` CPUs: `total_work / (span × cores)`.
    /// Above 1.0 the system cannot keep up during the arrival window.
    pub offered_load: f64,
}

impl TraceStats {
    /// Computes statistics of `trace` against a machine of `cores` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `cores` is zero.
    pub fn compute(trace: &AzureTrace, cores: usize) -> Self {
        assert!(!trace.is_empty(), "empty trace");
        assert!(cores > 0, "need at least one core");
        let inv = trace.invocations();
        let first = inv.first().expect("non-empty").arrival;
        let last = inv.last().expect("non-empty").arrival;
        let span = last
            .saturating_since(first)
            .max(SimDuration::from_micros(1));

        let iats = trace.inter_arrival_times();
        let (mean_iat, iat_cv) = if iats.is_empty() {
            (SimDuration::ZERO, 0.0)
        } else {
            let n = iats.len() as f64;
            let mean = iats.iter().map(|d| d.as_secs_f64()).sum::<f64>() / n;
            let var = iats
                .iter()
                .map(|d| (d.as_secs_f64() - mean).powi(2))
                .sum::<f64>()
                / n;
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            (SimDuration::from_secs_f64(mean), cv)
        };

        let mut durations: Vec<SimDuration> = inv.iter().map(|i| i.duration).collect();
        durations.sort_unstable();
        let total_work: SimDuration = durations.iter().copied().sum();
        let mean_duration = SimDuration::from_micros(total_work.as_micros() / inv.len() as u64);
        let p90_duration = durations[nearest_rank(0.9, inv.len() as u64) as usize - 1];

        let rate_per_sec = inv.len() as f64 / span.as_secs_f64();
        let offered_load = total_work.as_secs_f64() / (span.as_secs_f64() * cores as f64);
        TraceStats {
            invocations: inv.len(),
            span,
            mean_iat,
            iat_cv,
            mean_duration,
            p90_duration,
            total_work,
            rate_per_sec,
            offered_load,
        }
    }

    /// Per-minute invocation counts (the Fig. 2 right panel series).
    pub fn per_minute_counts(trace: &AzureTrace) -> Vec<usize> {
        let inv = trace.invocations();
        let Some(last) = inv.last() else {
            return Vec::new();
        };
        let minutes = (last.arrival.as_micros() / 60_000_000) as usize + 1;
        let mut counts = vec![0usize; minutes];
        for i in inv {
            counts[(i.arrival.as_micros() / 60_000_000) as usize] += 1;
        }
        counts
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} invocations over {} ({:.1}/s), mean duration {}, p90 {}, offered load {:.2}",
            self.invocations,
            self.span,
            self.rate_per_sec,
            self.mean_duration,
            self.p90_duration,
            self.offered_load
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TraceConfig;

    #[test]
    fn w2_stats_match_calibration() {
        let trace = AzureTrace::generate(&TraceConfig::w2());
        let stats = TraceStats::compute(&trace, 50);
        assert_eq!(stats.invocations, 12_442);
        // ~2-minute span.
        assert!(stats.span <= SimDuration::from_secs(120));
        assert!(stats.span >= SimDuration::from_secs(100));
        // Mean duration ≈ 875 ms; p90 = the 1,633 ms anchor bucket.
        let mean_ms = stats.mean_duration.as_millis();
        assert!((850..=900).contains(&mean_ms), "mean {mean_ms} ms");
        assert_eq!(stats.p90_duration, SimDuration::from_millis(1_633));
        // The paper's regime: ~1.8x overloaded on 50 cores.
        assert!(
            (1.5..=2.2).contains(&stats.offered_load),
            "offered load {}",
            stats.offered_load
        );
    }

    #[test]
    fn per_minute_counts_cover_all_invocations() {
        let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(10));
        let counts = TraceStats::per_minute_counts(&trace);
        assert_eq!(counts.iter().sum::<usize>(), trace.len());
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let trace = AzureTrace::generate(&TraceConfig::tiny());
        let text = TraceStats::compute(&trace, 4).to_string();
        assert!(text.contains("invocations"));
        assert!(text.contains("offered load"));
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let trace = AzureTrace::generate(&TraceConfig::tiny());
        let _ = TraceStats::compute(&trace, 0);
    }
}
