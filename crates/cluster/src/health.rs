//! The node-health feedback loop of the dispatch tier.
//!
//! Everything the router learns here arrives through one channel:
//! **delayed completion reports**. When the front end books an invocation
//! it knows (from its own FCFS model plus the chaos layer's kernel-side
//! straggle inflation) when the true completion will land; the report —
//! machine, response time — rides the front end's booked-completion queue
//! (on the winning booking's own entry, or on an entry of its own when a
//! straggler window delays it) and is only folded into [`HealthTracker`]
//! once the arrival clock passes it. The router therefore reacts to
//! stragglers *late*, exactly like a real control plane digesting
//! completion callbacks, and never peeks across the information boundary
//! (see `DESIGN.md` "Node-health feedback").
//!
//! The tracker feeds two mechanisms, each armed by its own
//! [`HealthConfig`] field; the default arms neither, and then the tracker
//! tracks nothing. A third, retry backoff, rides on the chaos config:
//!
//! * **Outlier ejection** ([`EjectionConfig`]) — a machine whose
//!   response-time EWMA exceeds `threshold ×` the fleet median is removed
//!   from every policy's candidate set for a probation window, bounded by
//!   a cap of half the active fleet out, so the fleet never starves.
//!   Crashes eject immediately.
//!   Probation expiry turns the next dispatch into a **half-open probe**:
//!   one invocation forced onto the suspect; a surviving probe re-admits
//!   it, a doomed one re-ejects it.
//! * **Hedged requests** ([`HedgeConfig`]) — when a placement's estimated
//!   response (booked completion, or the machine's reported EWMA if that
//!   is worse) passes the p95 of observed responses, a speculative copy
//!   is booked on the healthiest other candidate. A hedge budget caps the
//!   copies at 5% of all dispatches, so a fleet-wide slowdown cannot
//!   storm the queues with copies of itself. The estimated loser is
//!   handed a kernel deadline at the winner's booked completion and
//!   cancelled mid-flight; its wasted occupancy is billed through a
//!   [`CostAccumulator`](lambda_pricing::CostAccumulator). The tail is
//!   read from a [`QuantileSketch`] of the folded reports, behind a
//!   two-sided exact-count screen and a cache that holds between
//!   reports. The screen counts the reports in a value-ordered histogram
//!   (16 buckets per octave) and, from the sketch's rank-error bound,
//!   proves `est ≤ tail` for bookings well under the tail and
//!   `est > tail` for those well past it, so only estimates near the tail
//!   refresh it; a refresh is the sketch's own allocation-free
//!   [`quantile_mut`](QuantileSketch::quantile_mut), so the trigger's
//!   decisions are exactly the sketch's.
//! * **Retry backoff** ([`BackoffConfig`](crate::BackoffConfig), on the
//!   chaos config) — crash re-dispatch waits out an exponential, jittered
//!   delay and avoids the machine it just died on.
//!
//! The EWMA weight, the hedge quantile and budget, and the ejection
//! bounds are constants here, beside the sketch's accuracy.
//!
//! All state lives in the serial front-end fold, so a health-enabled run
//! is byte-identical at any fan width or chunk size. Report plumbing
//! never perturbs dispatch: with ejection and hedging armed but never
//! due (sample floors no run reaches), the tracker folds every report
//! and the run stays **bitwise identical** to the bare fleet's, which the
//! differential suite in `tests/health_differential.rs` pins.

use std::cmp::Reverse;

use faas_metrics::{HealthStats, MachineHealth, QuantileSketch};
use faas_simcore::{nearest_rank, IndexedMinHeap, SimDuration};
use lambda_pricing::{CostAccumulator, PriceModel};

use crate::frontend::FoldCounters;

/// Quantile-sketch accuracy for the hedge trigger's response-time tail.
const HEDGE_SKETCH_EPSILON: f64 = 0.01;

/// EWMA smoothing factor of the per-machine response times: a fresh
/// report weighs this much against the running average.
const EWMA_ALPHA: f64 = 0.2;

/// The hedge trigger fires when an estimated response passes this
/// quantile of observed responses (the classic "defer to the p95" rule).
const HEDGE_QUANTILE: f64 = 0.95;

/// Hedge budget: speculative copies never exceed this fraction of all
/// dispatches (plus one of grace so the trigger can arm). The cap is what
/// keeps a fleet-wide slowdown from storming the queues with copies of
/// itself: once most estimates pass the tail, the budget, not the
/// quantile, decides.
const HEDGE_MAX_FRACTION: f64 = 0.05;

/// At most this fraction of the active fleet may be ejected at once.
const MAX_EJECT_FRACTION: f64 = 0.5;

/// Sub-buckets per octave of the hedge screen's histogram: a value at or
/// above 16 is bucketed by its bit length and the four bits after its
/// leading one; values below 16 get a bucket each.
const SUBS: usize = 16;

/// Groups of [`SUBS`] buckets: the values below 16, then one per bit
/// length from 5 to 64.
const GROUPS: usize = 61;

/// The hedge screen's bucket of `v`; buckets order as their values do.
fn bucket(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let bits = (u64::BITS - v.leading_zeros()) as usize;
    SUBS * (bits - 4) + ((v >> (bits - 5)) as usize & (SUBS - 1))
}

/// Outlier-ejection tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EjectionConfig {
    /// Eject when a machine's EWMA exceeds this multiple of the fleet
    /// median EWMA (must be > 1).
    pub threshold: f64,
    /// How long an ejected machine sits out before it earns a probe.
    pub probation: SimDuration,
    /// Completion reports a machine must have produced before its EWMA
    /// can eject it (cold EWMAs are noise).
    pub min_samples: u64,
}

impl Default for EjectionConfig {
    fn default() -> Self {
        EjectionConfig {
            threshold: 2.0,
            probation: SimDuration::from_secs(10),
            min_samples: 8,
        }
    }
}

impl EjectionConfig {
    /// Sets the EWMA-vs-median ejection threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 1.0, "ejection threshold must exceed the median");
        self.threshold = threshold;
        self
    }

    /// Sets the probation window.
    #[must_use]
    pub fn with_probation(mut self, probation: SimDuration) -> Self {
        self.probation = probation;
        self
    }

    /// Sets the EWMA sample floor.
    #[must_use]
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }
}

/// Hedged-request tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Observed responses required before the trigger arms.
    pub min_samples: u64,
    /// Tariff for the losing attempt's wasted occupancy (`None` tracks
    /// hedge counts but no dollars).
    pub price: Option<PriceModel>,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            min_samples: 32,
            price: None,
        }
    }
}

impl HedgeConfig {
    /// Sets the observed-response floor before hedging arms.
    #[must_use]
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// Prices the losing attempt of every hedge.
    #[must_use]
    pub fn with_price(mut self, price: PriceModel) -> Self {
        self.price = Some(price);
        self
    }
}

/// Health-feedback knobs attached to a
/// [`ClusterConfig`](crate::ClusterConfig).
///
/// The default arms nothing, and then the tracker tracks nothing: it
/// takes no completion report and the summaries carry no per-machine
/// columns. Arming ejection, hedging or both turns on the report fold,
/// the per-machine EWMAs and their columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthConfig {
    /// Outlier ejection (`None` = never eject).
    pub ejection: Option<EjectionConfig>,
    /// Hedged requests (`None` = never speculate).
    pub hedge: Option<HedgeConfig>,
}

impl HealthConfig {
    /// Enables outlier ejection.
    #[must_use]
    pub fn with_ejection(mut self, ejection: EjectionConfig) -> Self {
        self.ejection = Some(ejection);
        self
    }

    /// Enables hedged requests.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }
}

/// Where a machine stands in the ejection state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// In the candidate set.
    Healthy,
    /// Out of the candidate set; eligible for a probe once the arrival
    /// clock passes `until_us`.
    Ejected { until_us: u64, since_us: u64 },
    /// A half-open probe is in flight; still out of the candidate set.
    Probing { since_us: u64 },
}

/// Tracker-side view of one machine.
#[derive(Debug, Clone, Copy)]
struct MachineState {
    ewma_us: f64,
    samples: u64,
    ejections: u64,
    straggled_us: u64,
    timeout_streak: u32,
    crash_streak: u32,
    phase: Phase,
}

impl MachineState {
    fn new() -> Self {
        MachineState {
            ewma_us: 0.0,
            samples: 0,
            ejections: 0,
            straggled_us: 0,
            timeout_streak: 0,
            crash_streak: 0,
            phase: Phase::Healthy,
        }
    }

    /// The hedge-placement score: lower is healthier. An unsampled
    /// machine scores zero (nothing known against it); streaks of
    /// timeouts or crashes inflate a sampled machine's EWMA.
    fn score(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.ewma_us * (1.0 + 0.5 * f64::from(self.timeout_streak) + f64::from(self.crash_streak))
    }
}

/// The hedge trigger's view of the folded response times: the tail
/// quantile's sketch and cache, and the exact-count histogram the screen
/// ([`HealthTracker::tail_screen`]) reads. Built only when hedging is
/// armed.
#[derive(Debug)]
struct HedgeTail {
    sketch: QuantileSketch,
    /// Cached tail quantile, valid while `version` equals the sketch's
    /// count — i.e. until the next completion report folds in.
    cache: Option<u64>,
    version: u64,
    /// Reports per group of [`SUBS`] buckets: the histogram's first
    /// level, so a count below a bucket sums a few groups and at most
    /// `SUBS − 1` buckets.
    groups: Vec<u64>,
    /// Reports per [`bucket`].
    buckets: Vec<u64>,
}

impl HedgeTail {
    fn new() -> Self {
        HedgeTail {
            sketch: QuantileSketch::new(HEDGE_SKETCH_EPSILON),
            cache: None,
            version: u64::MAX,
            groups: vec![0; GROUPS],
            buckets: vec![0; GROUPS * SUBS],
        }
    }

    fn record(&mut self, response_us: u64) {
        self.sketch.record(response_us);
        let b = bucket(response_us);
        self.groups[b / SUBS] += 1;
        self.buckets[b] += 1;
    }
}

/// The front-end-resident health fold: EWMAs, the ejection state
/// machine and the hedge trigger. One instance lives on the
/// [`FrontEnd`](crate::frontend::FrontEnd) next to the chaos fold, whose
/// booked-completion queue delivers the reports in (delivery instant,
/// booking order).
///
/// Everything the ejection check needs per report is maintained
/// incrementally (see `DESIGN.md` "Front-end hot path"): the fleet median
/// as a dual [`IndexedMinHeap`] order statistic, the active exclusion
/// count as a plain integer updated on phase transitions (each candidacy
/// flip is also queued for the front end's dispatch heaps), the probe
/// queue as an expiry heap + ready heap pair, and the hedge tail as a
/// cached quantile invalidated only when a report folds into the sketch,
/// behind an exact-count screen that settles most checks without it.
/// The tracker owns its view of the active prefix
/// ([`set_active`](Self::set_active)) so no per-call scan ever re-derives
/// it.
#[derive(Debug)]
pub(crate) struct HealthTracker {
    cfg: HealthConfig,
    /// `true` when the config arms ejection or hedging. Otherwise the
    /// tracker takes no completion report and its snapshot has no
    /// per-machine columns; every other method already acts on nothing
    /// then, so the front end calls them unconditionally.
    tracking: bool,
    machines: Vec<MachineState>,
    /// The front end's active prefix `[0, active)` — the slice every
    /// fleet-wide decision ranges over.
    active: usize,
    /// Machines whose candidacy flipped (`Healthy` ↔ any excluded
    /// phase) since the front end last drained them with
    /// [`pop_flip`](Self::pop_flip): the change notices that keep its
    /// dispatch heaps on exactly the candidate set.
    flips: Vec<u32>,
    /// Machines in `[0, active)` outside the candidate set: the O(1)
    /// numerator of [`can_eject`](Self::can_eject) and the guard on
    /// [`probe_target`](Self::probe_target).
    excluded_active: usize,
    /// Smaller half of the active sampled EWMAs (a max-heap via
    /// `Reverse`), keyed `(ewma bits, machine)` — EWMAs are non-negative,
    /// so the bit pattern orders exactly like `f64::total_cmp` and the
    /// machine index breaks ties deterministically.
    median_lo: IndexedMinHeap<Reverse<(u64, u32)>>,
    /// Larger half of the active sampled EWMAs; invariant
    /// `lo.len() == hi.len() + (n & 1)`.
    median_hi: IndexedMinHeap<(u64, u32)>,
    /// Ejected machines in the active prefix keyed by
    /// `(probation expiry, machine)`; expired entries promote into
    /// `probe_ready` when the probe query's clock passes them.
    eject_expiry: IndexedMinHeap<(u64, u32)>,
    /// Ejected active machines whose probation has expired, keyed by
    /// machine index so the probe picks the lowest index, like the scan
    /// it replaces.
    probe_ready: IndexedMinHeap<u32>,
    /// The hedge trigger's view of the observed responses (`None`
    /// without a hedge config).
    tail: Option<HedgeTail>,
    /// Dispatches whose completion reports were booked — the denominator
    /// of the hedge budget.
    dispatches: u64,
    hedge_cost: Option<CostAccumulator>,
    stats: HealthStats,
    /// The tracker's share of the fold's work counts: reports folded,
    /// hedge checks and tail refreshes.
    counters: FoldCounters,
}

impl HealthTracker {
    /// A tracker over `machines` with the active prefix `[0, active)`;
    /// one that tracks nothing unless `cfg` arms ejection or hedging.
    pub(crate) fn new(cfg: HealthConfig, machines: usize, active: usize) -> Self {
        HealthTracker {
            machines: vec![MachineState::new(); machines],
            active: active.min(machines),
            flips: Vec::new(),
            excluded_active: 0,
            median_lo: IndexedMinHeap::new(),
            median_hi: IndexedMinHeap::new(),
            eject_expiry: IndexedMinHeap::new(),
            probe_ready: IndexedMinHeap::new(),
            tail: cfg.hedge.map(|_| HedgeTail::new()),
            dispatches: 0,
            hedge_cost: cfg.hedge.and_then(|h| h.price).map(CostAccumulator::new),
            stats: HealthStats::default(),
            counters: FoldCounters::default(),
            cfg,
            tracking: cfg.ejection.is_some() || cfg.hedge.is_some(),
        }
    }

    /// Re-aims the tracker at a new active prefix, stepping one machine
    /// at a time so every boundary crossing updates the median heaps, the
    /// active exclusion count and the probe heaps exactly once.
    pub(crate) fn set_active(&mut self, new_active: usize) {
        let new_active = new_active.min(self.machines.len());
        while self.active < new_active {
            let m = self.active;
            self.active += 1;
            if self.machines[m].samples > 0 {
                self.median_upsert(m);
            }
            if !matches!(self.machines[m].phase, Phase::Healthy) {
                self.excluded_active += 1;
            }
            self.sync_probe_heaps(m);
        }
        while self.active > new_active {
            self.active -= 1;
            let m = self.active;
            if self.machines[m].samples > 0 {
                self.median_remove(m);
            }
            if !matches!(self.machines[m].phase, Phase::Healthy) {
                self.excluded_active -= 1;
            }
            self.probe_ready.remove(m);
            self.eject_expiry.remove(m);
        }
    }

    /// Sets `machine`'s phase, keeping the exclusion counter, the flip
    /// notices and the probe heaps coherent. Every phase assignment
    /// funnels through here (including `Ejected` → `Ejected` probation
    /// extensions, which only re-key the expiry heap).
    fn set_phase(&mut self, machine: usize, phase: Phase) {
        let was_healthy = matches!(self.machines[machine].phase, Phase::Healthy);
        let is_healthy = matches!(phase, Phase::Healthy);
        self.machines[machine].phase = phase;
        if was_healthy != is_healthy {
            self.flips.push(machine as u32);
            if machine < self.active {
                if is_healthy {
                    self.excluded_active -= 1;
                } else {
                    self.excluded_active += 1;
                }
            }
        }
        if machine < self.active {
            self.sync_probe_heaps(machine);
        }
    }

    /// Rebuilds `machine`'s membership in the probe pair from its phase:
    /// `Ejected` sits in the expiry heap (a pending `probe_ready` entry
    /// is pulled back — probation extensions un-expire a machine),
    /// anything else in neither.
    fn sync_probe_heaps(&mut self, machine: usize) {
        match self.machines[machine].phase {
            Phase::Ejected { until_us, .. } => {
                self.probe_ready.remove(machine);
                self.eject_expiry.set(machine, (until_us, machine as u32));
            }
            _ => {
                self.probe_ready.remove(machine);
                self.eject_expiry.remove(machine);
            }
        }
    }

    /// Inserts or re-keys `machine` in the median heaps after an EWMA
    /// change. A key that stays on its side of the split (below the
    /// upper half's minimum in the lower half, above the lower half's
    /// maximum in the upper) is re-keyed in place: the halves then hold
    /// the key sets remove-then-insert would leave, with no rebalance.
    /// Only a crossing or a first sample pays remove, insert and
    /// rebalance; each step is O(log M).
    fn median_upsert(&mut self, machine: usize) {
        let key = (self.machines[machine].ewma_us.to_bits(), machine as u32);
        let lo_max = self.median_lo.peek_min().map(|(_, &Reverse(k))| k);
        let hi_min = self.median_hi.peek_min().map(|(_, &k)| k);
        if self.median_lo.contains(machine) {
            if hi_min.is_none_or(|hi_min| key < hi_min) {
                self.median_lo.set(machine, Reverse(key));
                return;
            }
            self.median_lo.remove(machine);
        } else if self.median_hi.contains(machine) {
            if lo_max.is_none_or(|lo_max| key > lo_max) {
                self.median_hi.set(machine, key);
                return;
            }
            self.median_hi.remove(machine);
        }
        let into_lo = match (self.median_lo.peek_min(), self.median_hi.peek_min()) {
            (Some((_, &Reverse(lo_max))), _) => key <= lo_max,
            (None, Some((_, &hi_min))) => key < hi_min,
            (None, None) => true,
        };
        if into_lo {
            self.median_lo.set(machine, Reverse(key));
        } else {
            self.median_hi.set(machine, key);
        }
        self.median_rebalance();
    }

    /// Drops `machine` from whichever median half holds it.
    fn median_remove(&mut self, machine: usize) {
        if self.median_lo.remove(machine).is_none() {
            self.median_hi.remove(machine);
        }
        self.median_rebalance();
    }

    /// Restores `lo.len() == hi.len() + (n & 1)` by moving at most one
    /// boundary element; partitioning is preserved because only the
    /// current max-of-lo / min-of-hi ever crosses.
    fn median_rebalance(&mut self) {
        while self.median_lo.len() > self.median_hi.len() + 1 {
            let (m, Reverse(key)) = self.median_lo.pop_min().expect("len checked");
            self.median_hi.set(m, key);
        }
        while self.median_hi.len() > self.median_lo.len() {
            let (m, key) = self.median_hi.pop_min().expect("len checked");
            self.median_lo.set(m, Reverse(key));
        }
    }

    /// Books the completion report of a surviving dispatch: counts it
    /// toward the hedge budget and returns `true` if the front end must
    /// queue it for [`fold_report`](Self::fold_report). A tracker with
    /// nothing armed takes no reports.
    pub(crate) fn note_report(&mut self) -> bool {
        if self.tracking {
            self.dispatches += 1;
        }
        self.tracking
    }

    /// Folds one completion report, delivered at `report_at_us`: the
    /// machine's service latency `response_us` as the report describes
    /// it; `probe` marks a half-open health probe's.
    pub(crate) fn fold_report(
        &mut self,
        report_at_us: u64,
        machine: usize,
        response_us: u64,
        probe: bool,
    ) {
        self.counters.reports_folded += 1;
        if let Some(tail) = &mut self.tail {
            tail.record(response_us);
        }
        let m = &mut self.machines[machine];
        m.ewma_us = if m.samples == 0 {
            response_us as f64
        } else {
            EWMA_ALPHA * response_us as f64 + (1.0 - EWMA_ALPHA) * m.ewma_us
        };
        m.samples += 1;
        m.timeout_streak = 0;
        m.crash_streak = 0;
        if machine < self.active {
            self.median_upsert(machine);
        }
        if probe {
            // The probe completed. If a crash re-ejected the machine
            // while the report was in flight, the sample still counts
            // but the re-admission does not happen.
            if let Phase::Probing { since_us } = self.machines[machine].phase {
                self.machines[machine].straggled_us += report_at_us.saturating_sub(since_us);
                self.set_phase(machine, Phase::Healthy);
                self.stats.readmissions += 1;
            }
            return;
        }
        if matches!(self.machines[machine].phase, Phase::Healthy) {
            self.consider_ejection(machine, report_at_us);
        }
    }

    /// Ejects `machine` at `now_us` if its EWMA is a fleet outlier and
    /// the quorum/fraction bounds leave room.
    fn consider_ejection(&mut self, machine: usize, now_us: u64) {
        let Some(ej) = self.cfg.ejection else { return };
        let m = &self.machines[machine];
        if m.samples < ej.min_samples || !self.can_eject() {
            return;
        }
        let Some(median) = self.fleet_median() else {
            return;
        };
        if self.machines[machine].ewma_us > ej.threshold * median {
            self.eject(machine, now_us + ej.probation.as_micros(), now_us);
        }
    }

    /// Median EWMA over active machines with at least one sample; `None`
    /// with fewer than two sampled machines (no fleet context to deviate
    /// from). O(1): read off the dual-heap boundary. The value multiset
    /// is the one the old sort produced, so the median (single element or
    /// two-element mean) is bit-for-bit the same.
    fn fleet_median(&self) -> Option<f64> {
        let n = self.median_lo.len() + self.median_hi.len();
        if n < 2 {
            return None;
        }
        let (_, &Reverse((lo_bits, _))) = self.median_lo.peek_min().expect("lo holds the median");
        Some(if n % 2 == 1 {
            f64::from_bits(lo_bits)
        } else {
            let (_, &(hi_bits, _)) = self.median_hi.peek_min().expect("even split");
            (f64::from_bits(lo_bits) + f64::from_bits(hi_bits)) / 2.0
        })
    }

    /// `true` while one more ejection stays within [`MAX_EJECT_FRACTION`]
    /// of the active fleet. O(1) off the maintained active exclusion
    /// count. The cap alone keeps a machine in service: with the fraction
    /// at one half, an ejection needs `excluded + 1 ≤ ⌊active / 2⌋`, and
    /// `⌊active / 2⌋ ≤ active − 1` for every `active ≥ 1` (an empty
    /// prefix has a cap of zero and ejects nothing).
    fn can_eject(&self) -> bool {
        let cap = (self.active as f64 * MAX_EJECT_FRACTION).floor() as usize;
        self.excluded_active < cap
    }

    fn eject(&mut self, machine: usize, until_us: u64, since_us: u64) {
        self.set_phase(machine, Phase::Ejected { until_us, since_us });
        self.machines[machine].ejections += 1;
        self.stats.ejections += 1;
    }

    /// A crash landed on `machine`: bump its streak and (with ejection
    /// enabled) pull it from the candidate set until the downtime plus a
    /// probation has passed.
    pub(crate) fn note_crash(&mut self, machine: usize, until_us: u64, now_us: u64) {
        self.machines[machine].crash_streak += 1;
        let Some(ej) = self.cfg.ejection else { return };
        let free_again = until_us + ej.probation.as_micros();
        match self.machines[machine].phase {
            Phase::Healthy => {
                if self.can_eject() {
                    self.eject(machine, free_again, now_us);
                }
            }
            Phase::Ejected {
                until_us: u,
                since_us,
            } => {
                self.set_phase(
                    machine,
                    Phase::Ejected {
                        until_us: u.max(free_again),
                        since_us,
                    },
                );
            }
            Phase::Probing { since_us } => {
                // The machine died under (or right after) its probe; it
                // goes back to waiting, same ejection span.
                self.set_phase(
                    machine,
                    Phase::Ejected {
                        until_us: free_again,
                        since_us,
                    },
                );
            }
        }
    }

    /// The router's timeout verdict killed a placement on `machine`
    /// before dispatch — feeds the hedge score, nothing else.
    pub(crate) fn note_timeout(&mut self, machine: usize) {
        self.machines[machine].timeout_streak += 1;
    }

    /// The in-flight probe on `machine` was doomed by a scheduled crash:
    /// re-eject until a fresh probation past the crash.
    pub(crate) fn probe_doomed(&mut self, machine: usize, crash_at_us: u64) {
        self.stats.probe_failures += 1;
        let probation = self.cfg.ejection.map_or(0, |ej| ej.probation.as_micros());
        let since_us = match self.machines[machine].phase {
            Phase::Probing { since_us } | Phase::Ejected { since_us, .. } => since_us,
            Phase::Healthy => crash_at_us,
        };
        self.set_phase(
            machine,
            Phase::Ejected {
                until_us: crash_at_us + probation,
                since_us,
            },
        );
    }

    /// Takes one machine whose candidacy flipped since the last call
    /// (in no particular order; a machine that flipped twice may come
    /// twice). Its current phase, read through
    /// [`excluded`](Self::excluded), is what counts.
    pub(crate) fn pop_flip(&mut self) -> Option<usize> {
        self.flips.pop().map(|m| m as usize)
    }

    /// `true` if `machine` must not receive ordinary work.
    pub(crate) fn excluded(&self, machine: usize) -> bool {
        !matches!(self.machines[machine].phase, Phase::Healthy)
    }

    /// The lowest-indexed active machine whose probation has expired —
    /// the next dispatch becomes its half-open probe. O(log M): expired
    /// entries migrate from the expiry heap (ordered by expiry instant)
    /// into the ready heap (ordered by machine index); the ready minimum
    /// is exactly the lowest index the old prefix scan returned.
    pub(crate) fn probe_target(&mut self, now_us: u64) -> Option<usize> {
        if self.excluded_active == 0 {
            return None;
        }
        while let Some((m, &(until_us, _))) = self.eject_expiry.peek_min() {
            if until_us > now_us {
                break;
            }
            self.eject_expiry.remove(m);
            self.probe_ready.set(m, m as u32);
        }
        self.probe_ready.peek_min().map(|(m, _)| m)
    }

    /// Commits the probe: `machine` has an invocation in flight.
    pub(crate) fn mark_probing(&mut self, machine: usize) {
        if let Phase::Ejected { since_us, .. } = self.machines[machine].phase {
            self.set_phase(machine, Phase::Probing { since_us });
            self.stats.probes += 1;
        }
    }

    /// Whether a placement on `machine` with router-estimated response
    /// `booked_response_us` should be hedged: the trigger compares the
    /// worse of the booking and the machine's reported EWMA against the
    /// tracked tail quantile of observed responses.
    pub(crate) fn should_hedge(&mut self, machine: usize, booked_response_us: u64) -> bool {
        let Some(h) = self.cfg.hedge else {
            return false;
        };
        if self.tail.as_ref().map_or(0, |t| t.sketch.count()) < h.min_samples {
            return false;
        }
        // The budget gate: under a fleet-wide slowdown most estimates
        // pass the tail quantile, and unbounded speculation would feed
        // the very queues it is racing. One hedge of grace, then at
        // most `HEDGE_MAX_FRACTION` of all dispatches.
        let budget = 1 + (HEDGE_MAX_FRACTION * self.dispatches as f64) as u64;
        if self.stats.hedges >= budget {
            return false;
        }
        self.counters.hedge_checks += 1;
        let est = booked_response_us.max(self.machines[machine].ewma_us as u64);
        // Estimates well under the tail (the overwhelming majority) and
        // well past it are settled by an exact-count screen and never
        // touch the sketch.
        if let Some(hedge) = self.tail_screen(HEDGE_QUANTILE, est) {
            return hedge;
        }
        let tail = self.hedge_tail(HEDGE_QUANTILE);
        tail.is_some_and(|tail| est > tail)
    }

    /// Exact-count screen for the hedge trigger: `Some(est > tail)` when
    /// the histogram of folded responses decides it, `None` when only a
    /// refresh can. The sketch answers target rank `r = ⌈q·n⌉` with a
    /// value some copy of which sits at a sorted position within
    /// `E = ⌈ε·n⌉` of `r` (its rank-error bound, `⌊εn⌋` at most). Every
    /// value in a lower bucket is below `est` and every value in a
    /// higher bucket above it, so:
    ///
    /// * if at most `r − E − 1` reports lie in buckets up to `est`'s,
    ///   the answer's copy at position `r − E` or later lies in a higher
    ///   bucket: `tail > est`, no hedge;
    /// * if at least `r + E` reports lie in buckets below `est`'s, the
    ///   answer's copy at position `r + E` or earlier lies in a lower
    ///   bucket: `tail < est`, hedge.
    ///
    /// Two short sums over the histogram instead of a sketch walk; only
    /// estimates within the bound's band of the tail refresh it.
    fn tail_screen(&self, q: f64, est: u64) -> Option<bool> {
        let tail = self.tail.as_ref()?;
        let n = tail.sketch.count();
        if n == 0 {
            return Some(false);
        }
        let r = nearest_rank(q, n);
        let e = (tail.sketch.epsilon() * n as f64).ceil() as u64;
        let b = bucket(est);
        let group = b / SUBS;
        let below = tail.groups[..group].iter().sum::<u64>()
            + tail.buckets[group * SUBS..b].iter().sum::<u64>();
        if below >= r + e {
            Some(true)
        } else if below + tail.buckets[b] + e < r {
            Some(false)
        } else {
            None
        }
    }

    /// The tail quantile the hedge trigger compares against, cached per
    /// sketch version (= reports folded). A refresh is the sketch's
    /// `quantile_mut`: exactly the answer a flush would give, without an
    /// allocation and without moving the live sketch's flush cadence
    /// (which the byte-identity pin depends on). Repeated queries
    /// between reports cost a cache-tag compare.
    fn hedge_tail(&mut self, q: f64) -> Option<u64> {
        let tail = self.tail.as_mut()?;
        if tail.version != tail.sketch.count() {
            self.counters.tail_refreshes += 1;
            tail.cache = tail.sketch.quantile_mut(q);
            tail.version = tail.sketch.count();
        }
        tail.cache
    }

    /// The healthiest active candidate other than `primary` (lowest
    /// [`MachineState::score`], lowest index on ties), skipping ejected
    /// machines; `None` when no other candidate exists. Still a scan:
    /// hedges are budget-capped to a few percent of dispatches, so this
    /// is off the per-invocation hot path.
    pub(crate) fn hedge_target(&self, primary: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, m) in self.machines[..self.active].iter().enumerate() {
            if i == primary || !matches!(m.phase, Phase::Healthy) {
                continue;
            }
            let score = m.score();
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Books one hedge in the ledger. `won` means the speculative copy
    /// was the estimated winner; `loser_busy` is how long the losing
    /// attempt occupied its machine before the kernel cancelled it.
    pub(crate) fn record_hedge(&mut self, won: bool, loser_busy: SimDuration, mem_mib: u32) {
        self.stats.hedges += 1;
        if won {
            self.stats.hedges_won += 1;
        } else {
            self.stats.hedges_lost += 1;
        }
        if let Some(cost) = &mut self.hedge_cost {
            cost.record_duration(loser_busy, mem_mib);
        }
    }

    /// Books a hedge whose copy a crash doomed at dispatch: a lost hedge
    /// whose copy reaches no kernel, so it neither completes nor is
    /// cancelled. `busy` is how long it held its machine before the crash.
    pub(crate) fn record_doomed_copy(&mut self, busy: SimDuration, mem_mib: u32) {
        self.stats.doomed_copies += 1;
        self.record_hedge(false, busy, mem_mib);
    }

    /// The tracker's work counts: reports folded, hedge checks and tail
    /// refreshes (the other fields stay zero).
    pub(crate) fn counters(&self) -> FoldCounters {
        self.counters
    }

    /// Every machine's EWMA as raw `f64` bits, in machine order: the
    /// exact values the snapshot's columns round to microseconds.
    #[cfg(test)]
    pub(crate) fn ewma_bits(&self) -> Vec<u64> {
        self.machines.iter().map(|m| m.ewma_us.to_bits()).collect()
    }

    /// The ledger and per-machine columns as of `as_of_us` (machines
    /// still ejected have their open span counted up to that instant; no
    /// columns when not tracking).
    pub(crate) fn snapshot(&self, as_of_us: u64) -> (HealthStats, Vec<MachineHealth>) {
        let mut stats = self.stats;
        if let Some(cost) = &self.hedge_cost {
            stats.hedge_cost_usd = cost.total_usd();
        }
        if !self.tracking {
            return (stats, Vec::new());
        }
        let machines = self
            .machines
            .iter()
            .map(|m| {
                let pending = match m.phase {
                    Phase::Healthy => 0,
                    Phase::Ejected { since_us, .. } | Phase::Probing { since_us } => {
                        as_of_us.saturating_sub(since_us)
                    }
                };
                MachineHealth {
                    ewma: SimDuration::from_micros(m.ewma_us as u64),
                    samples: m.samples,
                    ejections: m.ejections,
                    straggled: SimDuration::from_micros(m.straggled_us + pending),
                }
            })
            .collect();
        (stats, machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::{check, SimTime};

    fn ms(v: u64) -> u64 {
        SimTime::from_millis(v).as_micros()
    }

    /// Books a report as the front end does and folds it at once, as the
    /// front end's queue does when its clock reaches `at_us`.
    fn report(t: &mut HealthTracker, machine: usize, at_us: u64, response_us: u64, probe: bool) {
        if t.note_report() {
            t.fold_report(at_us, machine, response_us, probe);
        }
    }

    /// Feeds `machine` a report of `response_ms` arriving at `at_ms` and
    /// folds it immediately.
    fn feed(t: &mut HealthTracker, machine: usize, at_ms: u64, response_ms: u64) {
        report(t, machine, ms(at_ms), ms(response_ms), false);
    }

    /// Ejection and hedging both armed behind sample floors no run
    /// reaches: the tracker folds every report and never acts.
    fn inert() -> HealthConfig {
        HealthConfig::default()
            .with_ejection(EjectionConfig::default().with_min_samples(u64::MAX))
            .with_hedge(HedgeConfig::default().with_min_samples(u64::MAX))
    }

    #[test]
    fn ewma_tracks_reports_and_first_sample_seeds() {
        let mut t = HealthTracker::new(inert(), 2, 2);
        feed(&mut t, 0, 1, 100);
        let (_, m) = t.snapshot(ms(1));
        assert_eq!(
            m[0].ewma,
            SimDuration::from_millis(100),
            "first sample seeds"
        );
        feed(&mut t, 0, 2, 200);
        let (_, m) = t.snapshot(ms(2));
        assert_eq!(
            m[0].ewma,
            SimDuration::from_millis(120),
            "0.2-blend of 200 into 100"
        );
        assert_eq!(m[0].samples, 2);
        assert_eq!(m[1].samples, 0);
    }

    #[test]
    fn property_tail_screen_never_flips_a_hedge_decision() {
        // The histogram screen decides a check only when it can prove the
        // answer, in either direction; every decided check must equal the
        // refreshed comparison `est > tail`. Heavy-tailed, constant,
        // bimodal and mixed response streams x estimate probes (random,
        // recorded values, the tail and its neighbours), past flush
        // boundaries, at a random quantile.
        let decided = std::cell::Cell::new([0u32; 2]);
        check::run("tail screen == refreshed est > tail", 64, |g| {
            let q = g.f64_in(0.5, 0.995);
            let mut t = HealthTracker::new(
                HealthConfig::default().with_hedge(HedgeConfig::default().with_min_samples(1)),
                2,
                2,
            );
            let n = g.usize_in(1, 1_500);
            let hi_bits = g.u64_in(2, 41);
            let hi = g.u64_in(2, 1 << hi_bits);
            let shape = g.u64_in(0, 4);
            let constant = g.u64_in(0, hi);
            let mut seen = Vec::with_capacity(n);
            for at in 1..=n as u64 {
                let v = match shape {
                    // Heavy tail: a uniform bit length, then a uniform
                    // value below it.
                    0 => {
                        let bits = u64::from(u64::BITS - hi.leading_zeros());
                        let bits = g.u64_in(1, bits + 1);
                        g.u64_in(0, 1 << bits)
                    }
                    1 => constant,
                    // Bimodal: fast bulk, a slow tenth.
                    2 if g.u64_in(0, 10) == 0 => g.u64_in(hi / 2, hi),
                    2 => g.u64_in(0, 1 + hi / 100),
                    _ if g.boolean() => g.u64_in(0, hi),
                    _ => g.u64_in(0, 1 + hi / 100),
                };
                seen.push(v);
                report(&mut t, 0, at, v, false);
            }
            let tail = t.hedge_tail(q).expect("non-empty sketch");
            for i in 0..24 {
                let est = match i % 3 {
                    0 => g.u64_in(0, 2 * hi),
                    1 => seen[g.usize_in(0, n)],
                    _ => (tail + g.u64_in(0, 3)).saturating_sub(1),
                };
                if let Some(hedge) = t.tail_screen(q, est) {
                    assert_eq!(
                        hedge,
                        est > tail,
                        "screen decided est {est} > tail {tail} is {hedge} (n={n}, q={q})"
                    );
                    let mut d = decided.get();
                    d[usize::from(hedge)] += 1;
                    decided.set(d);
                }
            }
        });
        let [below, above] = decided.get();
        assert!(
            below > 0 && above > 0,
            "both directions must be exercised: {below} below, {above} above"
        );
    }

    #[test]
    fn estimate_far_past_the_tail_hedges_without_a_refresh() {
        let cfg = HealthConfig::default().with_hedge(HedgeConfig::default().with_min_samples(10));
        // Machine 4 never reports, so its estimates are its bookings.
        let mut t = HealthTracker::new(cfg, 5, 5);
        for i in 0..40u64 {
            feed(&mut t, (i % 4) as usize, i + 1, 10);
        }
        assert!(t.should_hedge(4, ms(1_000)), "100x the tail hedges");
        assert!(!t.should_hedge(4, ms(1)), "a tenth of it does not");
        let c = t.counters();
        assert_eq!(
            (c.hedge_checks, c.tail_refreshes),
            (2, 0),
            "the screen settles both checks without the sketch"
        );
        assert!(!t.should_hedge(4, ms(10)), "a tie with the tail refreshes");
        assert_eq!(t.counters().tail_refreshes, 1);
    }

    #[test]
    fn inert_config_folds_reports_but_never_excludes_or_hedges() {
        let mut t = HealthTracker::new(inert(), 4, 4);
        for i in 0..100u64 {
            feed(
                &mut t,
                (i % 4) as usize,
                i + 1,
                if i % 4 == 3 { 5_000 } else { 10 },
            );
        }
        assert!((0..4).all(|m| !t.excluded(m)));
        assert_eq!(t.pop_flip(), None, "no candidacy ever flipped");
        assert!(t.probe_target(ms(1_000)).is_none());
        assert!(!t.should_hedge(3, ms(100_000)));
        let (stats, columns) = t.snapshot(ms(1_000));
        assert!(stats.is_zero());
        assert!(
            columns.iter().all(|m| m.samples == 25),
            "every report folds into its machine's column"
        );
    }

    #[test]
    fn untracked_tracker_queues_nothing_and_has_no_columns() {
        let mut t = HealthTracker::new(HealthConfig::default(), 4, 4);
        for _ in 0..100u64 {
            assert!(!t.note_report(), "no report taken");
        }
        t.note_crash(2, ms(200), ms(100));
        t.note_timeout(1);
        t.set_active(2);
        assert!((0..4).all(|m| !t.excluded(m)));
        assert_eq!(t.pop_flip(), None);
        assert!(t.probe_target(ms(1_000)).is_none());
        assert!(!t.should_hedge(3, ms(100_000)));
        let (stats, columns) = t.snapshot(ms(1_000));
        assert!(stats.is_zero());
        assert!(columns.is_empty(), "no per-machine columns");
    }

    #[test]
    fn outlier_ejects_probes_and_readmits() {
        let cfg = HealthConfig::default().with_ejection(
            EjectionConfig::default()
                .with_threshold(3.0)
                .with_probation(SimDuration::from_secs(1))
                .with_min_samples(4),
        );
        let mut t = HealthTracker::new(cfg, 4, 4);
        // Machines 0-2 report 10 ms; machine 3 reports 1 s — a 100×
        // outlier once it has its 4 samples.
        for round in 0..4u64 {
            for m in 0..4usize {
                feed(
                    &mut t,
                    m,
                    round * 10 + m as u64 + 1,
                    if m == 3 { 1_000 } else { 10 },
                );
            }
        }
        assert!(t.excluded(3), "outlier is ejected");
        assert!(!t.excluded(0));
        let (stats, cols) = t.snapshot(ms(40));
        assert_eq!(stats.ejections, 1);
        assert_eq!(cols[3].ejections, 1);
        assert!(cols[3].straggled > SimDuration::ZERO, "open span counts");
        // Probation (1 s) expires: machine 3 earns the next probe.
        // (Query the pre-expiry clock first — promotion into the ready
        // heap is monotone in the clock, like the fold itself.)
        assert_eq!(t.probe_target(ms(40)), None, "not before probation");
        assert_eq!(t.probe_target(ms(34) + 1_000_000), Some(3));
        t.mark_probing(3);
        assert!(t.excluded(3), "probing machine still excluded");
        // The probe reports back healthy: re-admission.
        report(&mut t, 3, ms(34) + 1_100_000, ms(15), true);
        assert!(!t.excluded(3));
        let (stats, _) = t.snapshot(ms(34) + 1_100_000);
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.readmissions, 1);
    }

    #[test]
    fn quorum_and_fraction_cap_bound_ejections() {
        let cfg = HealthConfig::default().with_ejection(
            EjectionConfig::default()
                .with_threshold(1.5)
                .with_min_samples(1),
        );
        // 2-machine fleet: the half-fleet cap allows one machine out, so
        // one always stays in service.
        let mut t = HealthTracker::new(cfg, 2, 2);
        feed(&mut t, 0, 1, 10);
        feed(&mut t, 1, 2, 10_000);
        assert!(t.excluded(1));
        // Machine 0 now looks terrible too — but ejecting it would leave
        // nothing, so it stays.
        feed(&mut t, 0, 3, 50_000);
        feed(&mut t, 0, 4, 50_000);
        assert!(!t.excluded(0), "the cap keeps the last machine in service");
        let (stats, _) = t.snapshot(ms(4));
        assert_eq!(stats.ejections, 1);
        // 5-machine fleet: at most half (rounded down) may be out. Each
        // outlier is worse than the last, so the third still passes 1.5×
        // the median, and one machine in service alone would let it go.
        let mut t = HealthTracker::new(cfg, 5, 5);
        feed(&mut t, 0, 1, 10);
        feed(&mut t, 1, 2, 10);
        feed(&mut t, 2, 3, 10_000);
        feed(&mut t, 3, 4, 20_000);
        feed(&mut t, 4, 5, 100_000);
        let out: Vec<usize> = (0..5).filter(|&m| t.excluded(m)).collect();
        assert_eq!(out, vec![2, 3], "the fraction cap stops the third");
        let (stats, _) = t.snapshot(ms(5));
        assert_eq!(stats.ejections, 2);
    }

    #[test]
    fn crash_ejects_immediately_and_doomed_probe_re_ejects() {
        let cfg = HealthConfig::default()
            .with_ejection(EjectionConfig::default().with_probation(SimDuration::from_secs(1)));
        let mut t = HealthTracker::new(cfg, 4, 4);
        t.note_crash(2, ms(5_000), ms(4_000));
        assert!(t.excluded(2), "crash ejects without any samples");
        // Downtime ends at 5 s, probation at 6 s.
        assert_eq!(t.probe_target(ms(5_500)), None);
        assert_eq!(t.probe_target(ms(6_000)), Some(2));
        t.mark_probing(2);
        t.probe_doomed(2, ms(6_100));
        assert!(t.excluded(2));
        assert_eq!(t.probe_target(ms(7_000)), None, "fresh probation");
        assert_eq!(t.probe_target(ms(7_100)), Some(2));
        let (stats, _) = t.snapshot(ms(7_100));
        assert_eq!(stats.ejections, 1);
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.probe_failures, 1);
        assert_eq!(stats.readmissions, 0);
    }

    #[test]
    fn hedge_trigger_arms_after_min_samples_and_targets_healthiest() {
        let cfg = HealthConfig::default().with_hedge(HedgeConfig::default().with_min_samples(10));
        let mut t = HealthTracker::new(cfg, 4, 4);
        for i in 0..9u64 {
            feed(&mut t, (i % 3) as usize, i + 1, 10);
        }
        assert!(
            !t.should_hedge(0, ms(100)),
            "trigger not armed below min_samples"
        );
        feed(&mut t, 0, 10, 10);
        assert!(
            t.should_hedge(0, ms(100)),
            "booked response far past the tail"
        );
        assert!(!t.should_hedge(0, ms(10) / 2), "fast booking is not hedged");
        // Machine 3 has no samples: score 0 makes it the hedge target.
        assert_eq!(t.hedge_target(0), Some(3));
        // Give 3 a slow sample; among sampled machines the fastest wins,
        // lowest index on ties (primary excluded).
        feed(&mut t, 3, 11, 8_000);
        assert_eq!(t.hedge_target(0), Some(1));
        assert_eq!(t.hedge_target(1), Some(0));
        // Ledger arithmetic.
        t.record_hedge(true, SimDuration::from_millis(30), 128);
        t.record_hedge(false, SimDuration::from_millis(20), 128);
        let (stats, _) = t.snapshot(ms(11));
        assert_eq!(
            (stats.hedges, stats.hedges_won, stats.hedges_lost),
            (2, 1, 1)
        );
        assert_eq!(stats.hedge_cost_usd, 0.0, "no tariff configured");
    }

    #[test]
    fn hedge_budget_caps_speculation_at_a_fraction_of_dispatches() {
        let cfg = HealthConfig::default().with_hedge(HedgeConfig::default().with_min_samples(4));
        let mut t = HealthTracker::new(cfg, 4, 4);
        for i in 0..50u64 {
            feed(&mut t, (i % 4) as usize, i + 1, 10);
        }
        // 5% of 50 dispatches, rounded down, + 1 of grace = budget for
        // 3 hedges.
        for _ in 0..3 {
            assert!(t.should_hedge(0, ms(100)), "budget not yet exhausted");
            t.record_hedge(false, SimDuration::from_millis(1), 128);
        }
        assert!(
            !t.should_hedge(0, ms(100)),
            "the budget gate blocks the fourth copy even past the tail"
        );
        // More dispatches replenish the budget: 5% of 70 is 3.5.
        for i in 50..70u64 {
            feed(&mut t, (i % 4) as usize, i + 1, 10);
        }
        assert!(
            t.should_hedge(0, ms(100)),
            "budget tracks the dispatch count"
        );
    }

    #[test]
    fn hedge_cost_bills_the_loser() {
        let price = PriceModel::duration_only();
        let cfg = HealthConfig::default().with_hedge(HedgeConfig::default().with_price(price));
        let mut t = HealthTracker::new(cfg, 2, 2);
        t.record_hedge(false, SimDuration::from_secs(1), 256);
        let (stats, _) = t.snapshot(0);
        let expected = price.cost_of_duration(SimDuration::from_secs(1), 256);
        assert!(expected > 0.0);
        assert_eq!(stats.hedge_cost_usd.to_bits(), expected.to_bits());
    }

    /// The pre-optimization sort-based fleet median, kept verbatim as the
    /// brute-force oracle for the dual-heap order statistic.
    fn oracle_median(t: &HealthTracker) -> Option<f64> {
        let mut ewmas: Vec<f64> = t.machines[..t.active]
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| m.ewma_us)
            .collect();
        if ewmas.len() < 2 {
            return None;
        }
        ewmas.sort_by(f64::total_cmp);
        let n = ewmas.len();
        Some(if n % 2 == 1 {
            ewmas[n / 2]
        } else {
            (ewmas[n / 2 - 1] + ewmas[n / 2]) / 2.0
        })
    }

    /// The pre-optimization probe scan: lowest-indexed active machine
    /// whose probation expired.
    fn oracle_probe(t: &HealthTracker, now_us: u64) -> Option<usize> {
        t.machines[..t.active]
            .iter()
            .position(|m| matches!(m.phase, Phase::Ejected { until_us, .. } if until_us <= now_us))
    }

    /// The pre-optimization exclusion count over the active prefix.
    fn oracle_excluded_active(t: &HealthTracker) -> usize {
        t.machines[..t.active]
            .iter()
            .filter(|m| !matches!(m.phase, Phase::Healthy))
            .count()
    }

    #[test]
    fn property_incremental_structures_match_brute_force() {
        check::run(
            "median/probe/exclusion/flips == brute force under chaos",
            48,
            |g| {
                let machines = g.usize_in(2, 17);
                let cfg = HealthConfig::default().with_ejection(
                    EjectionConfig::default()
                        .with_threshold(g.f64_in(1.1, 4.0))
                        .with_probation(SimDuration::from_millis(g.u64_in(1, 2_000)))
                        .with_min_samples(g.u64_in(1, 6)),
                );
                let mut t = HealthTracker::new(cfg, machines, machines);
                let mut now = 0u64;
                let mut was_excluded = vec![false; machines];
                for _ in 0..g.usize_in(1, 200) {
                    now += g.u64_in(0, 50_000);
                    match g.u64_in(0, 6) {
                        0..=2 => {
                            let m = g.usize_in(0, machines);
                            report(&mut t, m, now, g.u64_in(1, 5_000_000), false);
                        }
                        3 => {
                            let m = g.usize_in(0, machines);
                            t.note_crash(m, now + g.u64_in(0, 1_000_000), now);
                        }
                        4 => {
                            if let Some(m) = t.probe_target(now) {
                                t.mark_probing(m);
                                if g.boolean() {
                                    t.probe_doomed(m, now);
                                } else {
                                    report(&mut t, m, now, g.u64_in(1, 100_000), true);
                                }
                            }
                        }
                        _ => t.set_active(g.usize_in(1, machines + 1)),
                    }
                    match (t.fleet_median(), oracle_median(&t)) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "median diverged")
                        }
                        (a, b) => assert_eq!(a.is_some(), b.is_some(), "median presence"),
                    }
                    assert_eq!(t.excluded_active, oracle_excluded_active(&t));
                    assert_eq!(t.probe_target(now), oracle_probe(&t, now));
                    // Every candidacy change comes with a flip notice.
                    let mut flipped = vec![false; machines];
                    while let Some(m) = t.pop_flip() {
                        flipped[m] = true;
                    }
                    for (m, was) in was_excluded.iter_mut().enumerate() {
                        let is = t.excluded(m);
                        assert!(is == *was || flipped[m], "machine {m} flipped unannounced");
                        *was = is;
                    }
                }
            },
        );
    }

    #[test]
    fn property_hedge_tail_cache_matches_fresh_query() {
        check::run("cached hedge tail == unqueried twin's quantile", 24, |g| {
            let cfg =
                HealthConfig::default().with_hedge(HedgeConfig::default().with_min_samples(1));
            let q = g.f64_in(0.5, 0.99);
            let mut t = HealthTracker::new(cfg, 4, 4);
            // A twin fed the same responses and read only through the
            // `&self` quantile, which sorts a copy of its (never sorted)
            // buffer: the fresh query owes nothing to `quantile_mut`.
            let mut twin = QuantileSketch::new(HEDGE_SKETCH_EPSILON);
            let mut now = 0u64;
            for _ in 0..g.usize_in(1, 1_200) {
                now += 1;
                let response_us = g.u64_in(1, 1_000_000);
                report(&mut t, g.usize_in(0, 4), now, response_us, false);
                twin.record(response_us);
                if g.boolean() {
                    let fresh = twin.quantile(q);
                    assert_eq!(t.hedge_tail(q), fresh);
                    assert_eq!(t.hedge_tail(q), fresh, "cache hit must agree");
                }
            }
        });
    }
}
