//! Front-end dispatch policies: who gets the next invocation.
//!
//! A [`Dispatch`] policy sees only the front end's observable state
//! ([`DispatchCtx`]) — outstanding counts, dispatch totals, per-function
//! warmth — and returns a machine index. The stock policies cover the
//! classic trade-off square: oblivious ([`RandomDispatch`],
//! [`RoundRobinDispatch`]), load-aware ([`LeastOutstanding`],
//! [`PowerOfTwoChoices`]) and locality-aware ([`KeepAliveDispatch`],
//! which chases warm instances to dodge cold-start boots at the price of
//! looser balancing).

use faas_simcore::SimRng;

pub use crate::frontend::DispatchCtx;

/// Stream salt for [`RandomDispatch`]'s RNG (the workspace shard-seeding
/// rule: child streams are `SimRng::stream_seed(root, salt)`).
const RANDOM_DISPATCH_STREAM: u64 = 0xD15C_A7C4;

/// Stream salt for [`PowerOfTwoChoices`]'s RNG, distinct from
/// [`RANDOM_DISPATCH_STREAM`] so the two samplers never share a stream
/// even under the same root seed.
const P2C_DISPATCH_STREAM: u64 = 0x9072_0F2C;

/// A front-end routing policy.
pub trait Dispatch {
    /// Human-readable policy name (used in cluster reports and figures).
    fn name(&self) -> &str;

    /// Picks the machine for the invocation described by `ctx`.
    ///
    /// Must return an index below `ctx.machines()`.
    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize;
}

impl<D: Dispatch + ?Sized> Dispatch for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        (**self).pick(ctx)
    }
}

/// Sends every invocation to machine 0 — the degenerate policy that makes
/// a 1-machine cluster *equal* a standalone single-machine [`Simulation`]
/// run (pinned by the differential tests).
///
/// [`Simulation`]: faas_kernel::Simulation
pub struct Passthrough;

impl Dispatch for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn pick(&mut self, _ctx: &DispatchCtx<'_>) -> usize {
        0
    }
}

/// Uniform random routing, seeded deterministically from a root seed via
/// [`SimRng::stream_seed`] so cluster runs are reproducible.
pub struct RandomDispatch {
    rng: SimRng,
}

impl RandomDispatch {
    /// A random router whose choice stream derives from `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        RandomDispatch {
            rng: SimRng::stream(root_seed, RANDOM_DISPATCH_STREAM),
        }
    }
}

impl Dispatch for RandomDispatch {
    fn name(&self) -> &str {
        "random"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        self.rng.uniform_usize(ctx.machines())
    }
}

/// Strict round-robin over machine indices.
#[derive(Default)]
pub struct RoundRobinDispatch {
    next: usize,
}

impl RoundRobinDispatch {
    /// A round-robin router starting at machine 0.
    pub fn new() -> Self {
        RoundRobinDispatch::default()
    }
}

impl Dispatch for RoundRobinDispatch {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        let m = self.next % ctx.machines();
        self.next = m + 1;
        m
    }
}

/// Join-the-shortest-queue on the front end's outstanding estimate
/// (lowest machine index wins ties).
pub struct LeastOutstanding;

impl Dispatch for LeastOutstanding {
    fn name(&self) -> &str {
        "least-outstanding"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        ctx.least_outstanding()
    }
}

/// Keep-alive locality routing with a latency-budget spill rule: route
/// to a warm machine while the extra queueing delay of doing so stays
/// within the cold-start boot cost the warm hit avoids; past that
/// break-even point (or on a warm miss), route to the least-delayed
/// machine, paying one boot and seeding a new warm site there.
///
/// The comparison is in **time** units ([`DispatchCtx::est_wait`]), not
/// outstanding counts: a skewed function mix concentrates few-but-heavy
/// invocations on their warm machines, and a count-based bound never
/// fires for them (we measured 40× execution-time blow-ups on 16+
/// machine fleets before switching to the delay-vs-boot budget). The
/// rule is self-tuning — heavy functions overflow onto warm-site sets
/// sized by their work share, light functions stay put.
pub struct KeepAliveDispatch;

impl Dispatch for KeepAliveDispatch {
    fn name(&self) -> &str {
        "keep-alive"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        // A warm candidate is worth taking while its estimated completion
        // beats the best machine's completion *with* a boot charged — the
        // same estimator the timeout middleware sheds against. (For a
        // warm machine `est_completion` charges no boot, so this is the
        // delay-vs-boot budget in completion-instant form: both sides
        // carry the identical `arrival + duration` terms.)
        let best = ctx.least_wait();
        let budget = ctx.est_completion_after_boot(best);
        // `warm_candidates` visits the warm-site index in ascending
        // machine order, so the first-seen tie-break below matches the
        // full `0..machines()` scan this used to be, decision for
        // decision.
        let warm = ctx
            .warm_candidates()
            .filter(|&m| ctx.est_completion(m) <= budget);
        ctx.least_wait_of(warm).unwrap_or(best)
    }
}

/// Power-of-two-choices: sample two machines uniformly (a deterministic
/// [`SimRng`] stream, like [`RandomDispatch`]), then route to whichever
/// reports the smaller FCFS backlog estimate ([`DispatchCtx::est_wait`]).
/// Classic result: two informed samples shrink the maximum backlog
/// exponentially versus one, at O(1) cost per decision instead of
/// [`LeastOutstanding`]'s full scan.
///
/// The backlog estimate is a *booking* signal, not a health signal: it
/// never sees straggler inflation or crashes. Node-health feedback —
/// latency EWMAs from delayed completion reports, outlier ejection,
/// hedging — lives in the front end's `HealthTracker`
/// ([`ClusterConfig::with_health`](crate::ClusterConfig::with_health));
/// when ejection is active the front end narrows the candidate set
/// *before* this policy samples, so p2c composes with it unchanged.
///
/// Determinism contract: every pick consumes exactly two draws (even on
/// collision or a one-machine fleet), and ties break toward the
/// lower-index sample (`wb < wa || (wb == wa && b < a)` picks `b`).
pub struct PowerOfTwoChoices {
    rng: SimRng,
}

impl PowerOfTwoChoices {
    /// A p2c router whose sampling stream derives from `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        PowerOfTwoChoices {
            rng: SimRng::stream(root_seed, P2C_DISPATCH_STREAM),
        }
    }
}

impl Dispatch for PowerOfTwoChoices {
    fn name(&self) -> &str {
        "p2c"
    }

    fn pick(&mut self, ctx: &DispatchCtx<'_>) -> usize {
        // Always two draws (even when they collide or the fleet has one
        // machine): a fixed consumption rate keeps the decision stream
        // aligned across workloads sharing a seed.
        let a = self.rng.uniform_usize(ctx.machines());
        let b = self.rng.uniform_usize(ctx.machines());
        let (wa, wb) = (ctx.est_wait(a), ctx.est_wait(b));
        // Strictly-better or lower-index ties: deterministic either way.
        if wb < wa || (wb == wa && b < a) {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::FrontEnd;
    use crate::{ClusterConfig, ClusterTask, ColdStartConfig};
    use faas_kernel::{MachineConfig, TaskSpec};
    use faas_simcore::{SimDuration, SimTime};

    fn tasks(n: usize, function: impl Fn(usize) -> u64) -> Vec<ClusterTask> {
        (0..n)
            .map(|i| ClusterTask {
                spec: TaskSpec::function(
                    SimTime::from_millis(i as u64),
                    SimDuration::from_millis(50),
                    128,
                ),
                function: function(i),
            })
            .collect()
    }

    fn shares(cfg: &ClusterConfig, ts: &[ClusterTask], d: &mut dyn Dispatch) -> Vec<usize> {
        let a = FrontEnd::new(cfg).dispatch_chunk(ts, d);
        a.per_machine.iter().map(Vec::len).collect()
    }

    #[test]
    fn random_is_seed_deterministic_and_spread() {
        let cfg = ClusterConfig::new(4, MachineConfig::new(2));
        let ts = tasks(400, |_| 0);
        let a = shares(&cfg, &ts, &mut RandomDispatch::new(7));
        let b = shares(&cfg, &ts, &mut RandomDispatch::new(7));
        assert_eq!(a, b, "same root seed, same routing");
        let c = shares(&cfg, &ts, &mut RandomDispatch::new(8));
        assert_ne!(a, c, "different seed, different routing");
        assert!(a.iter().all(|&n| n > 50), "roughly uniform: {a:?}");
    }

    #[test]
    fn keep_alive_clusters_functions_on_warm_machines() {
        let cold = ColdStartConfig {
            boot_work: SimDuration::from_millis(125),
            keep_alive: SimDuration::from_secs(600),
        };
        let cfg = ClusterConfig::new(4, MachineConfig::new(4)).with_cold_start(cold);
        // Two interleaved functions under light load (no spill pressure,
        // no overlap: 130 ms of boot+work vs a 400 ms same-function
        // period): keep-alive pays one boot per function, round-robin
        // scatters both functions over all 4 machines and boots on each.
        let ts: Vec<ClusterTask> = (0..80)
            .map(|i| ClusterTask {
                spec: TaskSpec::function(
                    SimTime::from_millis(200 * i as u64),
                    SimDuration::from_millis(5),
                    128,
                ),
                function: (i % 2) as u64,
            })
            .collect();
        let ka = FrontEnd::new(&cfg).dispatch_chunk(&ts, &mut KeepAliveDispatch);
        let rr = FrontEnd::new(&cfg).dispatch_chunk(&ts, &mut RoundRobinDispatch::new());
        assert!(
            ka.cold_starts < rr.cold_starts,
            "keep-alive ({}) must beat round-robin ({}) on cold starts",
            ka.cold_starts,
            rr.cold_starts
        );
        assert_eq!(ka.cold_starts, 2, "one boot per function");
    }

    #[test]
    fn keep_alive_spills_when_warm_machines_saturate() {
        let cold = ColdStartConfig {
            boot_work: SimDuration::from_millis(125),
            keep_alive: SimDuration::from_secs(600),
        };
        // One function, heavy overload (50 ms of work every 1 ms against
        // 16 cores): strict warm-first routing would pin every invocation
        // to machine 0; the spill bound must spread the flood.
        let cfg = ClusterConfig::new(4, MachineConfig::new(4)).with_cold_start(cold);
        let ts = tasks(400, |_| 0);
        let a = FrontEnd::new(&cfg).dispatch_chunk(&ts, &mut KeepAliveDispatch);
        let shares: Vec<usize> = a.per_machine.iter().map(Vec::len).collect();
        assert!(
            shares.iter().all(|&n| n > 0),
            "overload must spill to every machine: {shares:?}"
        );
    }

    #[test]
    fn names_are_stable() {
        let names = [
            Passthrough.name().to_string(),
            RandomDispatch::new(1).name().to_string(),
            RoundRobinDispatch::new().name().to_string(),
            LeastOutstanding.name().to_string(),
            KeepAliveDispatch.name().to_string(),
            PowerOfTwoChoices::new(1).name().to_string(),
        ];
        assert_eq!(
            names,
            [
                "passthrough",
                "random",
                "round-robin",
                "least-outstanding",
                "keep-alive",
                "p2c"
            ]
        );
    }

    #[test]
    fn p2c_is_seed_deterministic_and_beats_random_on_imbalance() {
        let cfg = ClusterConfig::new(8, MachineConfig::new(1));
        // Heavy sustained load: every machine is busy, so the informed
        // second choice matters.
        let ts = tasks(800, |_| 0);
        let a = shares(&cfg, &ts, &mut PowerOfTwoChoices::new(7));
        let b = shares(&cfg, &ts, &mut PowerOfTwoChoices::new(7));
        assert_eq!(a, b, "same root seed, same routing");
        let c = shares(&cfg, &ts, &mut PowerOfTwoChoices::new(8));
        assert_ne!(a, c, "different seed, different routing");
        // Balance: p2c's max share must beat random's max share on the
        // same workload (the power-of-two-choices effect).
        let r = shares(&cfg, &ts, &mut RandomDispatch::new(7));
        assert!(a.iter().max() < r.iter().max(), "p2c {a:?} vs random {r:?}");
    }

    #[test]
    fn p2c_uses_distinct_stream_from_random() {
        // Same root seed must not produce the random router's choice
        // sequence — the stream salts differ.
        let cfg = ClusterConfig::new(8, MachineConfig::new(64));
        // All-idle machines: p2c ties break by index, so with zero load
        // differences it reduces to min of two uniform draws; still, the
        // dispatch *sequences* must differ from RandomDispatch's.
        let ts = tasks(64, |_| 0);
        let p2c = shares(&cfg, &ts, &mut PowerOfTwoChoices::new(42));
        let rnd = shares(&cfg, &ts, &mut RandomDispatch::new(42));
        assert_ne!(p2c, rnd);
    }
}
