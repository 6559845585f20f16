//! Deterministic fault injection and elastic scaling for cluster runs.
//!
//! This module supplies the three ingredients of the chaos layer:
//!
//! * **[`FaultPlan`]** — a pre-generated, seed-addressed schedule of machine
//!   crashes, straggler windows, and interference storms. Generation follows
//!   the same sharding contract as trace synthesis: each trace minute draws
//!   from an independent stream seeded with
//!   [`SimRng::stream_seed`]`(seed ^ SALT, minute)`, so the plan is
//!   byte-identical at any shard count and **prefix-stable** under trace
//!   truncation (the plan for `m` minutes is a prefix of the plan for
//!   `m' > m` minutes).
//! * **[`Autoscaler`]** — a pure hysteresis loop over router-observable
//!   signals (outstanding work per active machine). It never sees kernel
//!   ground truth; everything it reacts to is derivable from the front end's
//!   own FCFS booking model.
//! * **[`RetryEntry`]** — a crash-doomed invocation awaiting re-dispatch,
//!   queued by retry instant with FIFO tie-breaking so replay order is
//!   deterministic.
//!
//! All of this state lives in the serial front-end fold (see
//! `frontend.rs`), which is why cluster output stays byte-identical at any
//! `BENCH_THREADS` and any streaming chunk size. An **empty** fault plan with
//! no autoscaler is a strict no-op: the differential suite in
//! `tests/chaos_differential.rs` pins bare-cluster equality bitwise.

use azure_trace::shard;
use faas_kernel::StormWindow;
use faas_simcore::{SimDuration, SimRng, SimTime};
use lambda_pricing::PriceModel;

use crate::ClusterTask;

/// Stream salt for crash draws (`seed ^ CRASH_STREAM` roots the per-minute
/// streams).
const CRASH_STREAM: u64 = 0x00C4_A5D5;
/// Stream salt for straggler-window draws.
const STRAGGLE_STREAM: u64 = 0x005A_66E5;
/// Stream salt for interference-storm draws.
const STORM_STREAM: u64 = 0x0057_0247;
/// Stream salt for retry-backoff jitter draws.
const BACKOFF_STREAM: u64 = 0x0BAC_0FF5;

/// Microseconds in one trace minute.
const MINUTE_US: u64 = 60_000_000;

/// Crash process parameters: machines fail at `per_minute` expected events
/// per minute (fleet-wide) and stay down for a jittered `down` interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashConfig {
    /// Expected crashes per trace minute across the whole fleet.
    pub per_minute: f64,
    /// Base downtime; each event jitters this by ±50%.
    pub down: SimDuration,
}

/// Straggler process parameters: a machine's effective core speed degrades
/// by `slowdown`× for a jittered `duration` window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StraggleConfig {
    /// Expected straggler windows per trace minute across the fleet.
    pub per_minute: f64,
    /// Base window length; each event jitters this by ±50%.
    pub duration: SimDuration,
    /// Work multiplier applied to tasks dispatched into the window (> 1.0).
    pub slowdown: f64,
}

/// Interference-storm parameters: a machine's native-interference arrival
/// rate multiplies by `intensity` for a jittered `duration` window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormConfig {
    /// Expected storms per trace minute across the fleet.
    pub per_minute: f64,
    /// Base window length; each event jitters this by ±50%.
    pub duration: SimDuration,
    /// Interference-frequency multiplier inside the window (> 1.0).
    pub intensity: f64,
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Root seed; each fault type and minute derives an independent stream.
    pub seed: u64,
    /// Number of trace minutes to cover.
    pub minutes: usize,
    /// Crash process, if any.
    pub crash: Option<CrashConfig>,
    /// Straggler process, if any.
    pub straggle: Option<StraggleConfig>,
    /// Storm process, if any.
    pub storm: Option<StormConfig>,
}

impl FaultPlanConfig {
    /// A plan config with no fault processes enabled.
    pub fn new(seed: u64, minutes: usize) -> Self {
        FaultPlanConfig {
            seed,
            minutes,
            crash: None,
            straggle: None,
            storm: None,
        }
    }

    /// Enables the crash process.
    #[must_use]
    pub fn with_crashes(mut self, per_minute: f64, down: SimDuration) -> Self {
        assert!(per_minute >= 0.0, "crash rate must be non-negative");
        self.crash = Some(CrashConfig { per_minute, down });
        self
    }

    /// Enables the straggler process.
    #[must_use]
    pub fn with_stragglers(
        mut self,
        per_minute: f64,
        duration: SimDuration,
        slowdown: f64,
    ) -> Self {
        assert!(per_minute >= 0.0, "straggle rate must be non-negative");
        assert!(slowdown > 1.0, "a straggler must slow work down");
        self.straggle = Some(StraggleConfig {
            per_minute,
            duration,
            slowdown,
        });
        self
    }

    /// Enables the storm process.
    #[must_use]
    pub fn with_storms(mut self, per_minute: f64, duration: SimDuration, intensity: f64) -> Self {
        assert!(per_minute >= 0.0, "storm rate must be non-negative");
        assert!(intensity > 1.0, "a storm must intensify interference");
        self.storm = Some(StormConfig {
            per_minute,
            duration,
            intensity,
        });
        self
    }
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The machine loses all in-flight work and is unavailable for `down`.
    Crash {
        /// Downtime before the machine accepts work again.
        down: SimDuration,
    },
    /// Tasks dispatched into the window run `slowdown`× slower.
    Straggle {
        /// Window length.
        duration: SimDuration,
        /// Work multiplier (> 1.0).
        slowdown: f64,
    },
    /// Native interference arrives `intensity`× more often in the window.
    Storm {
        /// Window length.
        duration: SimDuration,
        /// Frequency multiplier (> 1.0).
        intensity: f64,
    },
}

/// A scheduled fault: what happens, where, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Instant the fault begins.
    pub at: SimTime,
    /// Target machine index (into the *maximum* fleet).
    pub machine: usize,
    /// The fault itself.
    pub fault: Fault,
}

/// A deterministic schedule of fault events over a fixed fleet.
///
/// # Examples
///
/// ```
/// use faas_cluster::{FaultPlan, FaultPlanConfig};
/// use faas_simcore::SimDuration;
///
/// let cfg = FaultPlanConfig::new(0xC4A0_5001, 3)
///     .with_crashes(2.0, SimDuration::from_secs(10))
///     .with_storms(1.0, SimDuration::from_secs(5), 8.0);
/// let plan = FaultPlan::generate(&cfg, 16);
/// assert!(!plan.is_empty());
/// // Same seed, any shard count: byte-identical.
/// assert_eq!(plan, FaultPlan::generate_sharded(&cfg, 16, 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    machines: usize,
}

impl FaultPlan {
    /// A plan with no events — injecting it is a strict no-op.
    pub fn empty(machines: usize) -> Self {
        FaultPlan {
            events: Vec::new(),
            machines,
        }
    }

    /// Generates the plan serially (shard count 1).
    pub fn generate(cfg: &FaultPlanConfig, machines: usize) -> Self {
        Self::generate_sharded(cfg, machines, 1)
    }

    /// Generates the plan with trace minutes fanned over `shards` worker
    /// threads. Byte-identical at any shard count.
    pub fn generate_sharded(cfg: &FaultPlanConfig, machines: usize, shards: usize) -> Self {
        assert!(machines > 0, "a fault plan needs at least one machine");
        let per_minute = shard::run_sharded(cfg.minutes, shards, |range| {
            range
                .map(|minute| events_for_minute(cfg, machines, minute))
                .collect()
        });
        FaultPlan {
            events: per_minute.into_iter().flatten().collect(),
            machines,
        }
    }

    /// The scheduled events, sorted by instant (ties keep generation order:
    /// crashes, then stragglers, then storms).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The fleet size the plan was generated for.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Extracts the storm windows targeting `machine`, in start order, for
    /// attachment to that machine's [`MachineConfig`](faas_kernel::MachineConfig).
    pub fn storm_windows(&self, machine: usize) -> Vec<StormWindow> {
        self.events
            .iter()
            .filter(|e| e.machine == machine)
            .filter_map(|e| match e.fault {
                Fault::Storm {
                    duration,
                    intensity,
                } => Some(StormWindow {
                    start: e.at,
                    end: e.at + duration,
                    intensity,
                }),
                _ => None,
            })
            .collect()
    }
}

/// Draws how many events a rate of `per_minute` produces this minute:
/// the integer part always fires, the fractional part is a Bernoulli draw.
fn rate_count(rng: &mut SimRng, per_minute: f64) -> u64 {
    let base = per_minute.floor() as u64;
    base + u64::from(rng.uniform_f64() < per_minute.fract())
}

/// Generates one minute's events. Depends only on `(cfg.seed, minute)`, so
/// minutes can be grouped onto threads arbitrarily and plans are
/// prefix-stable under truncation.
fn events_for_minute(cfg: &FaultPlanConfig, machines: usize, minute: usize) -> Vec<FaultEvent> {
    let minute_start = minute as u64 * MINUTE_US;
    let mut events = Vec::new();
    if let Some(crash) = cfg.crash {
        let mut rng = SimRng::stream(cfg.seed ^ CRASH_STREAM, minute as u64);
        for _ in 0..rate_count(&mut rng, crash.per_minute) {
            events.push(FaultEvent {
                at: SimTime::from_micros(minute_start + rng.uniform_u64(MINUTE_US)),
                machine: rng.uniform_usize(machines),
                fault: Fault::Crash {
                    down: rng.jitter(crash.down, 0.5),
                },
            });
        }
    }
    if let Some(straggle) = cfg.straggle {
        let mut rng = SimRng::stream(cfg.seed ^ STRAGGLE_STREAM, minute as u64);
        for _ in 0..rate_count(&mut rng, straggle.per_minute) {
            events.push(FaultEvent {
                at: SimTime::from_micros(minute_start + rng.uniform_u64(MINUTE_US)),
                machine: rng.uniform_usize(machines),
                fault: Fault::Straggle {
                    duration: rng.jitter(straggle.duration, 0.5),
                    slowdown: straggle.slowdown,
                },
            });
        }
    }
    if let Some(storm) = cfg.storm {
        let mut rng = SimRng::stream(cfg.seed ^ STORM_STREAM, minute as u64);
        for _ in 0..rate_count(&mut rng, storm.per_minute) {
            events.push(FaultEvent {
                at: SimTime::from_micros(minute_start + rng.uniform_u64(MINUTE_US)),
                machine: rng.uniform_usize(machines),
                fault: Fault::Storm {
                    duration: rng.jitter(storm.duration, 0.5),
                    intensity: storm.intensity,
                },
            });
        }
    }
    events.sort_by_key(|e| e.at);
    events
}

/// Exponential-backoff tuning for crash re-dispatch.
///
/// Without backoff a doomed invocation re-enters the dispatch stream the
/// instant its machine's crash lands — a thundering herd straight into a
/// degraded fleet. With backoff, attempt `n` waits
/// `min(base · 2ⁿ, cap)` (jittered by ±`jitter`) before re-dispatch,
/// and the retry avoids the machine it just died on. The jitter stream is
/// rooted at [`SimRng::stream`]`(seed, BACKOFF_STREAM)` and consumed in
/// the serial front-end fold, so the schedule is byte-identical at any
/// fan width or chunk size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Root seed for the jitter stream.
    pub seed: u64,
    /// Delay before the first retry (doubles per subsequent attempt).
    pub base: SimDuration,
    /// Ceiling on the un-jittered delay.
    pub cap: SimDuration,
    /// Symmetric jitter fraction in `[0, 1)`; `0.0` disables jitter.
    pub jitter: f64,
}

impl BackoffConfig {
    /// Backoff with the given seed, a 250 ms base, a 30 s cap and ±25%
    /// jitter.
    pub fn new(seed: u64) -> Self {
        BackoffConfig {
            seed,
            base: SimDuration::from_millis(250),
            cap: SimDuration::from_secs(30),
            jitter: 0.25,
        }
    }

    /// Sets the base delay and cap.
    #[must_use]
    pub fn with_delays(mut self, base: SimDuration, cap: SimDuration) -> Self {
        assert!(base <= cap, "backoff base must not exceed the cap");
        self.base = base;
        self.cap = cap;
        self
    }

    /// Sets the jitter fraction (`0.0 ..< 1.0`).
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter),
            "jitter fraction must be in [0, 1)"
        );
        self.jitter = jitter;
        self
    }

    /// The jittered delay before re-dispatching an invocation that has
    /// already consumed `attempts` dispatch attempts (so the first retry
    /// passes `attempts = 1`). The exponential is clamped to `cap`
    /// *before* jitter, so the effective delay stays within
    /// `cap · (1 + jitter)`.
    pub fn delay(&self, rng: &mut SimRng, attempts: u32) -> SimDuration {
        let doublings = attempts.saturating_sub(1).min(32);
        let raw = self.base.as_micros().saturating_mul(1u64 << doublings);
        let clamped = SimDuration::from_micros(raw.min(self.cap.as_micros()));
        rng.jitter(clamped, self.jitter)
    }

    /// The jitter stream rooted at this config's seed. The front end
    /// constructs this once and draws from it in fold order.
    pub fn stream(&self) -> SimRng {
        SimRng::stream(self.seed, BACKOFF_STREAM)
    }
}

/// Chaos knobs attached to a [`ClusterConfig`](crate::ClusterConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Attempts before a crashed invocation is abandoned (`None` = retry
    /// forever).
    pub max_retries: Option<u32>,
    /// Router-side SLO for recovery tracking: an epoch opened by a crash
    /// resolves when every active machine's estimated wait drops back under
    /// this bound.
    pub slo: Option<SimDuration>,
    /// Price model for the churn ledger (doomed attempts and abandonments).
    pub price: Option<PriceModel>,
    /// Exponential backoff (with crash-site avoidance) for retries;
    /// `None` re-dispatches at the crash instant on any machine.
    pub backoff: Option<BackoffConfig>,
}

impl ChaosConfig {
    /// Chaos with the given plan and no retry cap, SLO, pricing, or
    /// backoff.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosConfig {
            plan,
            max_retries: None,
            slo: None,
            price: None,
            backoff: None,
        }
    }

    /// Caps re-dispatch attempts per invocation.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = Some(max_retries);
        self
    }

    /// Enables SLO-recovery tracking.
    #[must_use]
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Enables the dollar churn ledger.
    #[must_use]
    pub fn with_price(mut self, price: PriceModel) -> Self {
        self.price = Some(price);
        self
    }

    /// Enables exponential retry backoff with crash-site avoidance.
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = Some(backoff);
        self
    }
}

/// Autoscaler tuning. Watermarks are in **outstanding invocations per
/// active machine**, the router-observable load signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// The fleet never shrinks below this many machines.
    pub min_machines: usize,
    /// Scale up when outstanding-per-machine exceeds this.
    pub high_watermark: f64,
    /// Scale down when outstanding-per-machine drops below this.
    pub low_watermark: f64,
    /// Minimum spacing between load observations.
    pub check_interval: SimDuration,
    /// Minimum spacing between scaling actions.
    pub cooldown: SimDuration,
    /// Boot lag charged to a newly added machine before it takes work.
    pub boot_lag: SimDuration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_machines: 1,
            high_watermark: 32.0,
            low_watermark: 8.0,
            check_interval: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(30),
            boot_lag: SimDuration::from_secs(2),
        }
    }
}

/// A scaling action emitted by [`Autoscaler::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Add one machine (boot lag applies before it takes work).
    Up,
    /// Drain and remove one machine.
    Down,
}

/// The hysteresis loop deciding when the fleet grows or shrinks.
///
/// `observe` is pure over `(now, outstanding, active)` plus the scaler's own
/// check/cooldown clocks, which makes its bounds directly property-testable:
/// decisions are at least `cooldown` apart, `Up` never fires at `max`, and
/// `Down` never fires at `min_machines`.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    max: usize,
    next_check_us: u64,
    cooldown_until_us: u64,
}

impl Autoscaler {
    /// A scaler bounded by `cfg.min_machines ..= max_machines`.
    pub fn new(cfg: AutoscaleConfig, max_machines: usize) -> Self {
        assert!(cfg.min_machines >= 1, "the fleet cannot scale to zero");
        assert!(
            cfg.min_machines <= max_machines,
            "min_machines {} exceeds the fleet size {max_machines}",
            cfg.min_machines
        );
        assert!(
            cfg.high_watermark > cfg.low_watermark,
            "watermarks must leave a hysteresis band"
        );
        Autoscaler {
            cfg,
            max: max_machines,
            next_check_us: 0,
            cooldown_until_us: 0,
        }
    }

    /// The configured floor.
    pub fn min_machines(&self) -> usize {
        self.cfg.min_machines
    }

    /// The boot lag charged to added machines.
    pub fn boot_lag(&self) -> SimDuration {
        self.cfg.boot_lag
    }

    /// Feeds one load observation; returns a decision when the hysteresis
    /// loop wants to act. `outstanding` is the total in-flight count over
    /// the `active` machines.
    pub fn observe(
        &mut self,
        now_us: u64,
        outstanding: u64,
        active: usize,
    ) -> Option<ScaleDecision> {
        if now_us < self.next_check_us {
            return None;
        }
        self.next_check_us = now_us + self.cfg.check_interval.as_micros();
        if now_us < self.cooldown_until_us {
            return None;
        }
        let per = outstanding as f64 / active.max(1) as f64;
        if per > self.cfg.high_watermark && active < self.max {
            self.cooldown_until_us = now_us + self.cfg.cooldown.as_micros();
            Some(ScaleDecision::Up)
        } else if per < self.cfg.low_watermark && active > self.cfg.min_machines {
            self.cooldown_until_us = now_us + self.cfg.cooldown.as_micros();
            Some(ScaleDecision::Down)
        } else {
            None
        }
    }
}

/// A crashed invocation waiting for re-dispatch. The front end queues it
/// in an [`EventQueue`](faas_simcore::EventQueue) keyed by the earliest
/// instant the retry may be dispatched, FIFO on equal instants, so crash
/// replay is deterministic regardless of insertion pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryEntry {
    /// The invocation to replay.
    pub task: ClusterTask,
    /// How many dispatch attempts the invocation has already consumed.
    pub attempts: u32,
    /// The machine the previous attempt died on; when backoff is
    /// enabled the retry's candidate set excludes it (unless it is the
    /// only machine left).
    pub avoid: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::TaskSpec;

    fn plan_cfg(seed: u64, minutes: usize) -> FaultPlanConfig {
        FaultPlanConfig::new(seed, minutes)
            .with_crashes(2.5, SimDuration::from_secs(10))
            .with_stragglers(1.25, SimDuration::from_secs(20), 3.0)
            .with_storms(0.75, SimDuration::from_secs(5), 8.0)
    }

    #[test]
    fn plan_is_shard_invariant_and_sorted_per_minute() {
        let cfg = plan_cfg(0xFEED_0001, 7);
        let serial = FaultPlan::generate(&cfg, 16);
        for shards in [2usize, 3, 7, 32] {
            assert_eq!(serial, FaultPlan::generate_sharded(&cfg, 16, shards));
        }
        for pair in serial.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "events must be time-sorted");
        }
        assert!(serial.events().iter().all(|e| e.machine < 16));
    }

    #[test]
    fn plan_is_prefix_stable_under_truncation() {
        let long = FaultPlan::generate(&plan_cfg(0xFEED_0002, 10), 8);
        let short = FaultPlan::generate(&plan_cfg(0xFEED_0002, 4), 8);
        assert!(short.events().len() < long.events().len());
        assert_eq!(short.events(), &long.events()[..short.events().len()]);
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::empty(4);
        assert!(plan.is_empty());
        assert_eq!(plan.machines(), 4);
        assert!(plan.storm_windows(0).is_empty());
        // A config with no processes generates the empty plan too.
        let none = FaultPlan::generate(&FaultPlanConfig::new(1, 100), 4);
        assert!(none.is_empty());
    }

    #[test]
    fn storm_windows_extract_per_machine() {
        let cfg =
            FaultPlanConfig::new(0xFEED_0003, 20).with_storms(2.0, SimDuration::from_secs(5), 8.0);
        let plan = FaultPlan::generate(&cfg, 4);
        let total: usize = (0..4).map(|m| plan.storm_windows(m).len()).sum();
        assert_eq!(total, plan.events().len());
        for m in 0..4 {
            for w in plan.storm_windows(m) {
                assert!(w.start < w.end);
                assert_eq!(w.intensity, 8.0);
            }
        }
    }

    #[test]
    fn autoscaler_respects_bounds_and_cooldown() {
        let cfg = AutoscaleConfig {
            min_machines: 2,
            high_watermark: 4.0,
            low_watermark: 1.0,
            check_interval: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(10),
            boot_lag: SimDuration::from_secs(2),
        };
        let mut scaler = Autoscaler::new(cfg, 4);
        // Overloaded at t=0: scale up.
        assert_eq!(scaler.observe(0, 100, 2), Some(ScaleDecision::Up));
        // Still overloaded inside the cooldown: no action.
        assert_eq!(scaler.observe(5_000_000, 100, 3), None);
        // After the cooldown: scale up again, but never past max.
        assert_eq!(scaler.observe(10_000_000, 100, 3), Some(ScaleDecision::Up));
        assert_eq!(scaler.observe(25_000_000, 100, 4), None);
        // Idle: scale down, but never below min.
        assert_eq!(scaler.observe(40_000_000, 0, 4), Some(ScaleDecision::Down));
        assert_eq!(scaler.observe(60_000_000, 0, 3), Some(ScaleDecision::Down));
        assert_eq!(scaler.observe(80_000_000, 0, 2), None);
    }

    #[test]
    fn autoscaler_check_interval_gates_observations() {
        let cfg = AutoscaleConfig {
            check_interval: SimDuration::from_secs(5),
            cooldown: SimDuration::ZERO,
            ..AutoscaleConfig::default()
        };
        let mut scaler = Autoscaler::new(cfg, 8);
        assert_eq!(scaler.observe(0, 1_000, 1), Some(ScaleDecision::Up));
        // Within the check interval the load is not even observed.
        assert_eq!(scaler.observe(1_000_000, 1_000, 2), None);
        assert_eq!(scaler.observe(5_000_000, 1_000, 2), Some(ScaleDecision::Up));
    }

    #[test]
    fn retry_queue_orders_by_instant_then_fifo() {
        let entry = |f: u64, attempts: u32, avoid: Option<usize>| RetryEntry {
            task: ClusterTask {
                spec: TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5), 128),
                function: f,
            },
            attempts,
            avoid,
        };
        let mut q = faas_simcore::EventQueue::new();
        q.schedule(SimTime::from_millis(30), entry(0, 1, None));
        q.schedule(SimTime::from_millis(10), entry(1, 1, Some(3)));
        q.schedule(SimTime::from_millis(10), entry(2, 2, None));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        let mut pop = || q.pop().unwrap().1.task.function;
        assert_eq!([pop(), pop(), pop()], [1, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn backoff_doubles_then_clamps() {
        let cfg = BackoffConfig::new(0xBAC0_0001)
            .with_delays(SimDuration::from_millis(100), SimDuration::from_secs(2))
            .with_jitter(0.0);
        let mut rng = cfg.stream();
        assert_eq!(cfg.delay(&mut rng, 1), SimDuration::from_millis(100));
        assert_eq!(cfg.delay(&mut rng, 2), SimDuration::from_millis(200));
        assert_eq!(cfg.delay(&mut rng, 3), SimDuration::from_millis(400));
        assert_eq!(cfg.delay(&mut rng, 5), SimDuration::from_millis(1_600));
        // Clamped to the cap from attempt 6 on — including absurd counts
        // that would overflow a naive shift.
        assert_eq!(cfg.delay(&mut rng, 6), SimDuration::from_secs(2));
        assert_eq!(cfg.delay(&mut rng, 64), SimDuration::from_secs(2));
    }

    #[test]
    fn backoff_jitter_stays_in_band_and_is_deterministic() {
        let cfg = BackoffConfig::new(0xBAC0_0002)
            .with_delays(SimDuration::from_millis(500), SimDuration::from_secs(10))
            .with_jitter(0.25);
        let mut rng = cfg.stream();
        let draws: Vec<SimDuration> = (1..=20).map(|a| cfg.delay(&mut rng, a)).collect();
        for (i, d) in draws.iter().enumerate() {
            let attempts = i as u32 + 1;
            let doublings = attempts.saturating_sub(1).min(32);
            let raw = SimDuration::from_millis(500)
                .as_micros()
                .saturating_mul(1 << doublings)
                .min(SimDuration::from_secs(10).as_micros());
            let lo = (raw as f64 * 0.75) as u64;
            let hi = (raw as f64 * 1.25).ceil() as u64;
            assert!(
                (lo..=hi).contains(&d.as_micros()),
                "attempt {attempts}: {} outside [{lo}, {hi}]",
                d.as_micros()
            );
        }
        // Same seed replays the same schedule; a different seed does not.
        let mut rng2 = cfg.stream();
        let replay: Vec<SimDuration> = (1..=20).map(|a| cfg.delay(&mut rng2, a)).collect();
        assert_eq!(draws, replay);
        let other = BackoffConfig::new(0xBAC0_0003)
            .with_delays(SimDuration::from_millis(500), SimDuration::from_secs(10))
            .with_jitter(0.25);
        let mut rng3 = other.stream();
        let diverged: Vec<SimDuration> = (1..=20).map(|a| other.delay(&mut rng3, a)).collect();
        assert_ne!(draws, diverged);
    }
}
