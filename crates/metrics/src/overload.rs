//! Overload-shedding counters for the dispatch-tier middleware.
//!
//! The cluster front end can refuse work (admission control, request
//! timeouts, circuit breakers — see `faas-cluster`'s `middleware`
//! module). Shed invocations never reach a machine, so they produce no
//! [`crate::TaskRecord`]; this struct is the ledger of what was refused
//! and why, attached to the [`crate::FleetSummary`] of either run path
//! so overload scenarios can report shed rates next to the latency
//! percentiles of the work that ran.
//!
//! All counters are plain integers incremented in arrival order by a
//! serial front end, so they are byte-identical at any fan width and
//! independent of how the trace was chunked.

/// Counters of work refused (or killed) by the overload middleware,
/// broken down by the layer that refused it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverloadStats {
    /// Shed by the per-function concurrency cap (admission layer).
    pub shed_concurrency: u64,
    /// Shed by the per-function token-bucket rate limiter (admission
    /// layer).
    pub shed_rate: u64,
    /// Shed by the router-side request timeout: the estimated completion
    /// on the chosen machine blew the deadline, so the invocation was
    /// abandoned before dispatch.
    pub shed_timeout: u64,
    /// Shed by an **open** circuit breaker (the function was isolated
    /// after its rolling timeout rate tripped the breaker).
    pub shed_breaker: u64,
    /// Times a circuit breaker transitioned closed/half-open → open.
    pub breaker_trips: u64,
    /// Invocations that were dispatched but later killed by the kernel's
    /// deadline cancellation (the caller abandoned mid-flight; partial
    /// work was done but is unbilled).
    pub kernel_cancelled: u64,
    /// Revenue the provider forfeited on shed invocations: the billable
    /// cost each would have produced had it run, folded left-to-right in
    /// arrival order (deterministic f64 fold). Zero when the middleware
    /// has no price model attached.
    pub lost_revenue_usd: f64,
}

impl OverloadStats {
    /// Total invocations refused at the router (all four shed causes;
    /// kernel cancellations are *not* included — those were dispatched).
    pub fn total_shed(&self) -> u64 {
        self.shed_concurrency + self.shed_rate + self.shed_timeout + self.shed_breaker
    }

    /// `true` if the middleware never refused or killed anything — the
    /// signature of a no-op stack (or no middleware at all).
    pub fn is_zero(&self) -> bool {
        self.total_shed() == 0 && self.breaker_trips == 0 && self.kernel_cancelled == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = OverloadStats::default();
        assert!(s.is_zero());
        assert_eq!(s.total_shed(), 0);
        assert_eq!(s.lost_revenue_usd, 0.0);
    }

    #[test]
    fn total_shed_sums_router_causes_only() {
        let s = OverloadStats {
            shed_concurrency: 1,
            shed_rate: 2,
            shed_timeout: 3,
            shed_breaker: 4,
            breaker_trips: 1,
            kernel_cancelled: 7,
            lost_revenue_usd: 0.5,
        };
        assert_eq!(s.total_shed(), 10, "kernel cancellations are not sheds");
        assert!(!s.is_zero());
    }

    #[test]
    fn trips_alone_break_is_zero() {
        let s = OverloadStats {
            breaker_trips: 1,
            ..OverloadStats::default()
        };
        assert!(!s.is_zero());
    }
}
