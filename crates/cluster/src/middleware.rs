//! The overload-middleware stack of the dispatch tier.
//!
//! A production router does not accept every invocation: layered overload
//! policies refuse work *before* it consumes fleet capacity. This module
//! is that stack as a deterministic simulation component, wrapping any
//! [`Dispatch`](crate::Dispatch) policy. Per invocation, layers evaluate
//! in a fixed order at dispatch time (the classic rate-limit → timeout →
//! circuit-breaker middleware ordering):
//!
//! 1. **Admission control** — a per-function concurrency cap over the
//!    front end's in-flight estimate, then a per-function deterministic
//!    token bucket (integer micro-token arithmetic on the simulated
//!    clock). Refused work is *recorded*, never simulated: it costs the
//!    provider its would-have-been bill (a
//!    [`CostAccumulator`](lambda_pricing::CostAccumulator) ledger) but no
//!    machine ever sees it.
//! 2. **Circuit-breaker gate** — a function whose breaker is open is shed
//!    without consulting the dispatch policy; after
//!    [`BreakerConfig::cooldown`] the next arrival is admitted as a
//!    half-open probe.
//! 3. **Request timeout** — after the policy picks a machine, the shared
//!    completion estimator
//!    ([`DispatchCtx::est_completion`](crate::DispatchCtx::est_completion):
//!    queue estimate + cold boot if cold + the invocation's own duration)
//!    is compared against the arrival-relative deadline; a predicted-late
//!    invocation is abandoned at the router. Each verdict also feeds the
//!    breaker's rolling window. Optionally
//!    ([`OverloadConfig::kernel_cancel`]) admitted work carries the
//!    deadline into the kernel, which kills it mid-flight if the estimate
//!    was optimistic — the caller stops paying either way.
//!
//! **Information boundary:** every decision reads only router-observable
//! state — the front end's FCFS drain estimates, its own counters, and
//! the simulated clock. Nothing peeks at per-machine kernel ground truth,
//! so phase 1 (dispatch) stays independent of phase 2 (machine fan) and
//! runs are byte-identical at any fan width.
//!
//! **Determinism & chunking:** all mutable state (buckets, breaker
//! windows, in-flight heaps, counters, the lost-revenue fold) lives in
//! the [`FrontEnd`](crate::FrontEnd) and is a pure fold over the arrival
//! sequence, so a chunked streaming feed makes decision-for-decision the
//! same choices as one materialized pass. A disabled stack
//! ([`OverloadConfig::default`]) sheds nothing, stamps nothing and adds
//! no kernel events: runs are bitwise identical to the bare policy
//! (pinned by the no-op differential suite).

use std::collections::VecDeque;

use faas_kernel::TaskSpec;
use faas_metrics::OverloadStats;
use faas_simcore::{FxHashMap, MinHeap4, SimDuration, SimTime};
use lambda_pricing::{CostAccumulator, PriceModel};

/// Per-function token-bucket rate limit (admission layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Sustained admission rate, invocations per simulated second.
    pub rate_per_sec: u64,
    /// Bucket capacity in whole invocations: the burst a previously idle
    /// function may land at once. Buckets start full.
    pub burst: u64,
}

/// Per-function circuit breaker (isolation layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Rolling-window length, in router verdicts per function.
    pub window: usize,
    /// Trip threshold in percent: the breaker opens when a full window
    /// holds at least `trip_pct`% timeout verdicts.
    pub trip_pct: u32,
    /// How long the breaker stays open (on the simulated clock) before
    /// one arrival is admitted as a half-open probe.
    pub cooldown: SimDuration,
}

/// Configuration of the overload-middleware stack, attached to a fleet
/// via [`ClusterConfig::with_overload`](crate::ClusterConfig::with_overload).
///
/// Every layer is independently optional; the [`Default`] value disables
/// all of them — the **no-op stack**, bitwise identical to running the
/// bare dispatch policy.
#[derive(Debug, Clone, Default)]
pub struct OverloadConfig {
    /// Per-function cap on the front end's in-flight estimate; arrivals
    /// beyond it are shed. `None` disables the cap.
    pub concurrency_limit: Option<usize>,
    /// Per-function token-bucket rate limiter. `None` disables it.
    pub rate_limit: Option<RateLimitConfig>,
    /// Arrival-relative request deadline: an invocation whose estimated
    /// completion on the chosen machine exceeds `arrival + deadline` is
    /// shed at the router. `None` means an infinite deadline.
    pub deadline: Option<SimDuration>,
    /// Also carry [`OverloadConfig::deadline`] into the kernel
    /// ([`TaskSpec::deadline`]), cancelling admitted work mid-flight when
    /// the router's estimate was optimistic. Ignored without a deadline.
    pub kernel_cancel: bool,
    /// Per-function circuit breaker over router timeout verdicts. `None`
    /// disables it.
    pub breaker: Option<BreakerConfig>,
    /// Price shed work's forfeited revenue under this tariff. `None`
    /// reports zero lost revenue.
    pub price: Option<PriceModel>,
}

impl OverloadConfig {
    /// Sets the per-function concurrency cap.
    pub fn with_concurrency_limit(mut self, cap: usize) -> Self {
        self.concurrency_limit = Some(cap);
        self
    }

    /// Sets the per-function token-bucket rate limit.
    pub fn with_rate_limit(mut self, rate_per_sec: u64, burst: u64) -> Self {
        self.rate_limit = Some(RateLimitConfig {
            rate_per_sec,
            burst,
        });
        self
    }

    /// Sets the arrival-relative request deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables kernel-level cancellation of admitted work past deadline.
    pub fn with_kernel_cancel(mut self) -> Self {
        self.kernel_cancel = true;
        self
    }

    /// Sets the per-function circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Prices shed work under `price`.
    pub fn with_price(mut self, price: PriceModel) -> Self {
        self.price = Some(price);
        self
    }
}

/// Micro-tokens per token: accruing `rate_per_sec` micro-tokens per
/// simulated microsecond equals `rate_per_sec` whole tokens per second,
/// with zero rounding drift on integer arithmetic.
const TOKEN_SCALE: u64 = 1_000_000;

/// Deterministic integer token bucket. State is a pure fold over the
/// function's arrival instants, so admission decisions are independent of
/// how the stream was chunked.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    micro_tokens: u64,
    last_us: u64,
}

impl TokenBucket {
    /// A bucket born full at `now_us` (an idle function may burst).
    fn new(now_us: u64, cfg: &RateLimitConfig) -> Self {
        TokenBucket {
            micro_tokens: cfg.burst.saturating_mul(TOKEN_SCALE),
            last_us: now_us,
        }
    }

    /// Refills for the elapsed simulated time, then tries to take one
    /// token.
    fn admit(&mut self, now_us: u64, cfg: &RateLimitConfig) -> bool {
        let cap = cfg.burst.saturating_mul(TOKEN_SCALE);
        let accrued = (now_us - self.last_us).saturating_mul(cfg.rate_per_sec);
        self.micro_tokens = self.micro_tokens.saturating_add(accrued).min(cap);
        self.last_us = now_us;
        if self.micro_tokens >= TOKEN_SCALE {
            self.micro_tokens -= TOKEN_SCALE;
            true
        } else {
            false
        }
    }
}

/// Per-function breaker state: a rolling window of router timeout
/// verdicts plus the open-until instant.
#[derive(Debug, Clone, Default)]
struct Breaker {
    /// Most recent verdicts, oldest first; `true` = timeout.
    outcomes: VecDeque<bool>,
    /// Count of `true` entries in `outcomes`.
    failures: usize,
    /// `Some(t)` while open: arrivals before `t` µs are shed, the first
    /// at or after `t` probes half-open.
    open_until: Option<u64>,
}

/// Outcome of the pre-pick layers for one invocation.
pub(crate) enum Admission {
    /// Proceed to the dispatch pick; `probe` marks a half-open breaker
    /// probe whose verdict closes or re-opens the breaker.
    Admit {
        /// This invocation is the breaker's half-open probe.
        probe: bool,
    },
    /// Refused before any policy pick (already counted and priced).
    Shed,
}

/// The middleware stack's mutable state, owned by the front end and
/// folded over the arrival sequence.
#[derive(Debug)]
pub(crate) struct Overload {
    cfg: OverloadConfig,
    // Per-function state, keyed by function id under the fast hasher;
    // no pass over these maps depends on their iteration order.
    buckets: FxHashMap<u64, TokenBucket>,
    breakers: FxHashMap<u64, Breaker>,
    /// Per-function estimated completion instants (µs) of admitted
    /// in-flight invocations; maintained only under a concurrency cap.
    in_flight: FxHashMap<u64, MinHeap4<u64>>,
    shed_cost: Option<CostAccumulator>,
    stats: OverloadStats,
}

impl Overload {
    pub(crate) fn new(cfg: OverloadConfig) -> Self {
        let shed_cost = cfg.price.map(CostAccumulator::new);
        Overload {
            cfg,
            buckets: FxHashMap::default(),
            breakers: FxHashMap::default(),
            in_flight: FxHashMap::default(),
            shed_cost,
            stats: OverloadStats::default(),
        }
    }

    /// Folds one shed invocation's forfeited revenue into the ledger.
    fn price_shed(&mut self, spec: &TaskSpec) {
        if let Some(acc) = &mut self.shed_cost {
            acc.record_duration(spec.work + spec.io_wait, spec.mem_mib);
        }
    }

    /// Layers 1–2 (admission control, breaker gate), evaluated before the
    /// dispatch policy is consulted.
    pub(crate) fn admit(&mut self, function: u64, now_us: u64, spec: &TaskSpec) -> Admission {
        if let Some(cap) = self.cfg.concurrency_limit {
            let q = self.in_flight.entry(function).or_default();
            while q.peek_min().is_some_and(|&t| t <= now_us) {
                q.pop_min();
            }
            if q.len() >= cap {
                self.stats.shed_concurrency += 1;
                self.price_shed(spec);
                return Admission::Shed;
            }
        }
        if let Some(rl) = self.cfg.rate_limit {
            let bucket = self
                .buckets
                .entry(function)
                .or_insert_with(|| TokenBucket::new(now_us, &rl));
            if !bucket.admit(now_us, &rl) {
                self.stats.shed_rate += 1;
                self.price_shed(spec);
                return Admission::Shed;
            }
        }
        if self.cfg.breaker.is_some() {
            let b = self.breakers.entry(function).or_default();
            if let Some(until) = b.open_until {
                if now_us < until {
                    self.stats.shed_breaker += 1;
                    self.price_shed(spec);
                    return Admission::Shed;
                }
                return Admission::Admit { probe: true };
            }
        }
        Admission::Admit { probe: false }
    }

    /// The absolute deadline of an invocation arriving at `arrival`, if a
    /// request timeout is configured.
    pub(crate) fn deadline_at(&self, arrival: SimTime) -> Option<SimTime> {
        self.cfg.deadline.map(|d| arrival + d)
    }

    /// Layer 3 (request timeout) plus the breaker's verdict bookkeeping,
    /// evaluated after the policy picked a machine. `late` is the router's
    /// timeout verdict (estimated completion past deadline). Returns
    /// `true` if the invocation must be shed.
    pub(crate) fn verdict(
        &mut self,
        function: u64,
        probe: bool,
        late: bool,
        now_us: u64,
        spec: &TaskSpec,
    ) -> bool {
        if let Some(bc) = self.cfg.breaker {
            let b = self.breakers.entry(function).or_default();
            if probe {
                if late {
                    // Probe failed: re-open for another cooldown.
                    b.open_until = Some(now_us + bc.cooldown.as_micros());
                    self.stats.breaker_trips += 1;
                } else {
                    // Probe succeeded: close with a fresh window.
                    b.open_until = None;
                    b.outcomes.clear();
                    b.failures = 0;
                }
            } else {
                b.outcomes.push_back(late);
                if late {
                    b.failures += 1;
                }
                if b.outcomes.len() > bc.window && b.outcomes.pop_front() == Some(true) {
                    b.failures -= 1;
                }
                let full = b.outcomes.len() == bc.window && bc.window > 0;
                if full && b.failures as u64 * 100 >= u64::from(bc.trip_pct) * bc.window as u64 {
                    b.open_until = Some(now_us + bc.cooldown.as_micros());
                    self.stats.breaker_trips += 1;
                    b.outcomes.clear();
                    b.failures = 0;
                }
            }
        }
        if late {
            self.stats.shed_timeout += 1;
            self.price_shed(spec);
            return true;
        }
        false
    }

    /// Stamps the kernel-level deadline onto an admitted spec when the
    /// kernel-cancel variant is enabled.
    pub(crate) fn stamp(&self, spec: &mut TaskSpec, arrival: SimTime) {
        if self.cfg.kernel_cancel {
            if let Some(d) = self.cfg.deadline {
                spec.deadline = Some(arrival + d);
            }
        }
    }

    /// Accounts one admitted dispatch (feeds the concurrency cap's
    /// in-flight estimate).
    pub(crate) fn note_dispatch(&mut self, function: u64, completion_us: u64) {
        if self.cfg.concurrency_limit.is_some() {
            self.in_flight
                .entry(function)
                .or_default()
                .push(completion_us);
        }
    }

    /// The shed ledger so far (`kernel_cancelled` is filled in by the
    /// report assembly from the machines' own counters — the router never
    /// observes in-flight cancellations).
    pub(crate) fn stats(&self) -> OverloadStats {
        let mut s = self.stats;
        s.lost_revenue_usd = self
            .shed_cost
            .as_ref()
            .map_or(0.0, CostAccumulator::total_usd);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(at_us: u64) -> TaskSpec {
        TaskSpec::function(
            SimTime::from_micros(at_us),
            SimDuration::from_millis(10),
            128,
        )
    }

    fn rate_only(rate_per_sec: u64, burst: u64) -> Overload {
        Overload::new(OverloadConfig::default().with_rate_limit(rate_per_sec, burst))
    }

    fn admitted(mw: &mut Overload, function: u64, now_us: u64) -> bool {
        matches!(
            mw.admit(function, now_us, &spec(now_us)),
            Admission::Admit { .. }
        )
    }

    #[test]
    fn token_bucket_allows_burst_then_meters() {
        // 2/s with burst 2: the first two arrivals at t=0 pass on the full
        // bucket, the third is shed; after 500 ms one token has accrued.
        let mut mw = rate_only(2, 2);
        assert!(admitted(&mut mw, 7, 0));
        assert!(admitted(&mut mw, 7, 0));
        assert!(!admitted(&mut mw, 7, 0));
        assert!(!admitted(&mut mw, 7, 250_000), "quarter second: no token");
        assert!(admitted(&mut mw, 7, 500_000), "half second: one token");
        assert_eq!(mw.stats().shed_rate, 2);
    }

    #[test]
    fn token_buckets_are_per_function() {
        let mut mw = rate_only(1, 1);
        assert!(admitted(&mut mw, 1, 0));
        assert!(!admitted(&mut mw, 1, 0));
        assert!(admitted(&mut mw, 2, 0), "function 2 has its own bucket");
    }

    #[test]
    fn concurrency_cap_drains_by_estimated_completion() {
        let mut mw = Overload::new(OverloadConfig::default().with_concurrency_limit(1));
        assert!(admitted(&mut mw, 5, 0));
        mw.note_dispatch(5, 1_000);
        assert!(!admitted(&mut mw, 5, 500), "estimate still in flight");
        assert!(admitted(&mut mw, 5, 1_000), "estimate drained at 1 ms");
        assert_eq!(mw.stats().shed_concurrency, 1);
    }

    #[test]
    fn breaker_trips_on_window_and_probes_after_cooldown() {
        let bc = BreakerConfig {
            window: 4,
            trip_pct: 50,
            cooldown: SimDuration::from_millis(100),
        };
        let mut mw = Overload::new(OverloadConfig::default().with_breaker(bc));
        // Two timeouts in a window of four trips the breaker.
        for (t, late) in [(0, false), (1, true), (2, false), (3, true)] {
            assert!(admitted(&mut mw, 9, t));
            mw.verdict(9, false, late, t, &spec(t));
        }
        assert_eq!(mw.stats().breaker_trips, 1);
        // Open: sheds without a pick.
        assert!(matches!(
            mw.admit(9, 50_000, &spec(50_000)),
            Admission::Shed
        ));
        // Past cooldown: half-open probe; a failed probe re-opens.
        match mw.admit(9, 100_003, &spec(100_003)) {
            Admission::Admit { probe } => assert!(probe, "first post-cooldown arrival probes"),
            Admission::Shed => panic!("probe must be admitted"),
        }
        assert!(mw.verdict(9, true, true, 100_003, &spec(100_003)));
        assert_eq!(mw.stats().breaker_trips, 2);
        assert!(matches!(
            mw.admit(9, 150_000, &spec(150_000)),
            Admission::Shed
        ));
        // A successful probe closes the breaker again.
        match mw.admit(9, 200_003, &spec(200_003)) {
            Admission::Admit { probe } => assert!(probe),
            Admission::Shed => panic!("probe must be admitted"),
        }
        assert!(!mw.verdict(9, true, false, 200_003, &spec(200_003)));
        assert!(admitted(&mut mw, 9, 200_004), "closed after good probe");
        assert_eq!(mw.stats().shed_breaker, 2);
    }

    #[test]
    fn shed_work_is_priced_at_its_own_duration() {
        let price = PriceModel::duration_only();
        let mut mw = Overload::new(
            OverloadConfig::default()
                .with_rate_limit(1, 1)
                .with_price(price),
        );
        let s = spec(0);
        assert!(matches!(mw.admit(3, 0, &s), Admission::Admit { .. }));
        assert!(matches!(mw.admit(3, 0, &s), Admission::Shed));
        let want = price.cost_of_duration(s.work + s.io_wait, s.mem_mib);
        assert_eq!(mw.stats().lost_revenue_usd.to_bits(), want.to_bits());
    }

    #[test]
    fn noop_stack_admits_everything_untouched() {
        let mut mw = Overload::new(OverloadConfig::default());
        for t in 0..1_000 {
            assert!(matches!(
                mw.admit(t % 7, t, &spec(t)),
                Admission::Admit { probe: false }
            ));
            assert!(!mw.verdict(t % 7, false, false, t, &spec(t)));
            let mut s = spec(t);
            mw.stamp(&mut s, SimTime::from_micros(t));
            assert_eq!(s.deadline, None, "no kernel stamp without kernel_cancel");
        }
        assert!(mw.stats().is_zero());
    }

    #[test]
    fn kernel_stamp_requires_both_flags() {
        let with = Overload::new(
            OverloadConfig::default()
                .with_deadline(SimDuration::from_millis(50))
                .with_kernel_cancel(),
        );
        let mut s = spec(1_000);
        with.stamp(&mut s, SimTime::from_micros(1_000));
        assert_eq!(
            s.deadline,
            Some(SimTime::from_micros(1_000) + SimDuration::from_millis(50))
        );
        // Deadline without kernel_cancel stays router-only.
        let router_only =
            Overload::new(OverloadConfig::default().with_deadline(SimDuration::from_millis(50)));
        let mut s = spec(1_000);
        router_only.stamp(&mut s, SimTime::from_micros(1_000));
        assert_eq!(s.deadline, None);
        assert_eq!(
            router_only.deadline_at(SimTime::from_micros(1_000)),
            Some(SimTime::from_micros(1_000) + SimDuration::from_millis(50))
        );
    }

    #[test]
    fn token_bucket_decisions_are_independent_of_chunking() {
        // Property: feeding the same arrival sequence in arbitrary chunk
        // splits produces the same admit/shed decision sequence — the
        // bucket folds over arrivals, never over chunk boundaries.
        faas_simcore::check::run("token_bucket_chunk_independent", 60, |g| {
            let rate = g.u64_in(1, 2_000);
            let burst = g.u64_in(1, 8);
            let n = g.usize_in(1, 120);
            let mut arrivals = Vec::with_capacity(n);
            let mut t = 0u64;
            for _ in 0..n {
                t += g.u64_in(0, 3_000);
                arrivals.push(t);
            }
            let decide_all = |splits: &[usize]| -> Vec<bool> {
                // `splits` only shapes the iteration grouping; one
                // Overload instance persists across groups like the
                // FrontEnd does across dispatch_chunk calls.
                let mut mw = rate_only(rate, burst);
                let mut out = Vec::with_capacity(arrivals.len());
                let mut i = 0;
                for &len in splits {
                    for _ in 0..len {
                        if i < arrivals.len() {
                            out.push(admitted(&mut mw, 0, arrivals[i]));
                            i += 1;
                        }
                    }
                }
                while i < arrivals.len() {
                    out.push(admitted(&mut mw, 0, arrivals[i]));
                    i += 1;
                }
                out
            };
            let one_pass = decide_all(&[arrivals.len()]);
            let mut splits = Vec::new();
            let mut left = arrivals.len();
            while left > 0 {
                let take = g.usize_in(1, left + 1);
                splits.push(take);
                left -= take;
            }
            assert_eq!(decide_all(&splits), one_pass, "splits {splits:?}");
        });
    }
}
