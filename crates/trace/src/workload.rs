//! End-to-end workload synthesis and the workload-file format (§V-A/B,
//! Fig. 9 steps ①–③).
//!
//! A [`TraceConfig`] describes how many minutes and invocations to
//! synthesize; [`AzureTrace::generate`] produces the merged, sorted
//! invocation list; [`AzureTrace::to_task_specs`] turns it into kernel
//! tasks; and the CSV round-trip mirrors the paper's workload file of
//! `(inter-arrival time, fibonacci N)` rows.
//!
//! Synthesis is **sharded**: every trace minute (and every [`SPEC_BLOCK`]
//! of task specs) draws from its own RNG stream seeded by
//! [`SimRng::stream_seed`] from the config's root seed and the unit
//! index, so [`AzureTrace::generate_sharded`] can fan units across
//! threads (see [`crate::shard`]) while producing byte-identical output
//! at any shard count — shard count 1 *is* the serial reference path.

use std::io::{BufRead, BufReader, Read, Write};

use faas_kernel::TaskSpec;
use faas_simcore::{SimDuration, SimRng, SimTime};

use crate::arrivals::{arrivals_within_minute, sharded_minute_counts, ArrivalConfig};
use crate::calibration::FIB_MIN_N;
use crate::durations::{spec_from_sample, DurationDistribution, MemoryDistribution};
use crate::shard;

/// Invocations per task-spec jitter block — the logical sharding unit of
/// [`AzureTrace::to_task_specs_sharded`]. Fixed (never derived from the
/// shard count), so block boundaries — and therefore every jittered
/// sample — are identical no matter how the blocks are grouped onto
/// threads.
pub const SPEC_BLOCK: usize = 1024;

/// Stream salt for per-minute invocation bodies (memory sampling).
const MINUTE_BODY_STREAM: u64 = 0x00B0_D1E5;

/// Stream salt for per-block work jitter in task specs (shared with the
/// chunked path in [`crate::stream`], which must reproduce the exact
/// per-block streams).
pub(crate) const SPEC_JITTER_STREAM: u64 = 0x5EED_F00D;

/// Configuration of one synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Trace length in minutes.
    pub minutes: usize,
    /// Total number of invocations across the whole trace.
    pub total_invocations: usize,
    /// RNG seed (the whole trace is a pure function of this config).
    pub seed: u64,
    /// Multiplicative jitter applied to each invocation's work (±fraction).
    pub jitter: f64,
    /// Arrival burstiness parameters.
    pub arrivals: ArrivalConfig,
}

impl TraceConfig {
    /// The paper's main workload `W2`: the first two minutes of the
    /// (downscaled) Azure trace — 12,442 invocations (§II, Fig. 1).
    pub fn w2() -> Self {
        TraceConfig {
            minutes: 2,
            total_invocations: 12_442,
            seed: 0xA2_EE,
            jitter: 0.03,
            arrivals: ArrivalConfig::default(),
        }
    }

    /// The 10-minute workload used for the adaptive-limit and rightsizing
    /// timelines (Figs. 16/17/19), at the same rate as `W2`.
    pub fn w10() -> Self {
        TraceConfig {
            minutes: 10,
            total_invocations: 62_210,
            ..TraceConfig::w2()
        }
    }

    /// The Firecracker workload `WFC`: 2,952 microVM launches in the first
    /// ten minutes (§VI-E) — the host-memory ceiling the paper hits.
    pub fn firecracker() -> Self {
        TraceConfig {
            minutes: 10,
            total_invocations: 2_952,
            ..TraceConfig::w2()
        }
    }

    /// A tiny deterministic workload for unit tests and doc examples.
    pub fn tiny() -> Self {
        TraceConfig {
            minutes: 1,
            total_invocations: 50,
            ..TraceConfig::w2()
        }
    }

    /// Scales the invocation count (e.g. for criterion benches), keeping
    /// at least one invocation.
    pub fn downscaled(mut self, factor: usize) -> Self {
        assert!(factor > 0, "downscale factor must be positive");
        self.total_invocations = (self.total_invocations / factor).max(1);
        self
    }

    /// Multiplies the arrival rate by `multiplier` over the same horizon —
    /// the **cluster-scale knob**: an M-machine fleet behind a front end
    /// sees M times the request rate of one enclave, so the cluster
    /// scenarios drive `w2().rps_scaled(M)` at M machines. The extra
    /// invocations flow through the same sharded per-minute streams, so
    /// generation stays byte-identical at any shard count.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use azure_trace::TraceConfig;
    ///
    /// let single = TraceConfig::w2();
    /// let fleet = TraceConfig::w2().rps_scaled(4);
    /// assert_eq!(fleet.total_invocations, 4 * single.total_invocations);
    /// assert_eq!(fleet.minutes, single.minutes);
    /// ```
    pub fn rps_scaled(mut self, multiplier: usize) -> Self {
        assert!(multiplier > 0, "RPS multiplier must be positive");
        self.total_invocations *= multiplier;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One synthesized invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Arrival instant.
    pub arrival: SimTime,
    /// Fibonacci bucket argument (36..=46).
    pub fib_n: u32,
    /// Nominal bucket duration (before jitter).
    pub duration: SimDuration,
    /// Allocated memory in MiB.
    pub mem_mib: u32,
}

/// A complete synthetic trace: sorted invocations plus the distributions
/// they were drawn from.
#[derive(Debug, Clone)]
pub struct AzureTrace {
    invocations: Vec<Invocation>,
    durations: DurationDistribution,
    jitter: f64,
    seed: u64,
}

impl AzureTrace {
    /// Synthesizes a trace from `cfg` (deterministic in `cfg.seed`).
    ///
    /// Equivalent to [`AzureTrace::generate_sharded`] with one shard —
    /// the serial reference path the sharded builds are pinned against.
    pub fn generate(cfg: &TraceConfig) -> Self {
        Self::generate_sharded(cfg, 1)
    }

    /// Synthesizes a trace from `cfg`, fanning the per-minute work across
    /// up to `shards` worker threads.
    ///
    /// Pipeline (mirrors §V-B): per-minute totals (bursty, one
    /// spike-weight stream per minute) → per-minute per-bucket counts
    /// (largest remainder over duration weights) → regular spacing within
    /// the minute → concatenate (minutes are disjoint time ranges, so the
    /// result is sorted by construction).
    ///
    /// Every minute's randomness comes from its own stream seeded by
    /// [`SimRng::stream_seed`]`(cfg.seed ^ salt, minute)`, so the output
    /// is **byte-identical at any `shards` value** — sharding changes
    /// wall-clock time, never bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use azure_trace::{AzureTrace, TraceConfig};
    ///
    /// let cfg = TraceConfig::tiny();
    /// let serial = AzureTrace::generate(&cfg);
    /// let fanned = AzureTrace::generate_sharded(&cfg, 4);
    /// assert_eq!(serial.invocations(), fanned.invocations());
    /// ```
    pub fn generate_sharded(cfg: &TraceConfig, shards: usize) -> Self {
        let durations = DurationDistribution::azure_like();
        let memory = MemoryDistribution::azure_like();
        let minute_totals =
            sharded_minute_counts(cfg.minutes, cfg.total_invocations, &cfg.arrivals, cfg.seed);
        let invocations = shard::run_sharded(cfg.minutes, shards, |minutes| {
            let mut out = Vec::with_capacity(minutes.clone().map(|m| minute_totals[m]).sum());
            for minute in minutes {
                synth_minute(
                    &durations,
                    &memory,
                    cfg.seed,
                    minute,
                    minute_totals[minute],
                    &mut out,
                );
            }
            out
        });
        debug_assert!(invocations.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        AzureTrace {
            invocations,
            durations,
            jitter: cfg.jitter,
            seed: cfg.seed,
        }
    }

    /// The sorted invocations.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// The duration distribution backing this trace.
    pub fn durations(&self) -> &DurationDistribution {
        &self.durations
    }

    /// The first `n` invocations as a new trace — e.g. the paper's
    /// Firecracker fleet, which is the prefix of the 10-minute trace that
    /// fits in host memory ("we can only launch 2,952 microVMs", SVI-E).
    pub fn truncated(&self, n: usize) -> AzureTrace {
        AzureTrace {
            invocations: self.invocations.iter().take(n).copied().collect(),
            durations: self.durations.clone(),
            jitter: self.jitter,
            seed: self.seed,
        }
    }

    /// A copy with all arrival instants multiplied by `factor` — e.g. to
    /// model launch-path pacing: a busy host cannot start microVMs as fast
    /// as bare processes (jailer + API + guest boot serialize).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn stretched(&self, factor: f64) -> AzureTrace {
        assert!(
            factor.is_finite() && factor > 0.0,
            "stretch factor must be positive"
        );
        AzureTrace {
            invocations: self
                .invocations
                .iter()
                .map(|i| Invocation {
                    arrival: SimTime::from_micros(
                        (i.arrival.as_micros() as f64 * factor).round() as u64
                    ),
                    ..*i
                })
                .collect(),
            durations: self.durations.clone(),
            jitter: self.jitter,
            seed: self.seed,
        }
    }

    /// Kernel task specs (work jittered deterministically, `expected` set
    /// to the nominal bucket duration for deadline policies).
    ///
    /// Equivalent to [`AzureTrace::to_task_specs_sharded`] with one shard.
    pub fn to_task_specs(&self) -> Vec<TaskSpec> {
        self.to_task_specs_sharded(1)
    }

    /// Kernel task specs, with the jitter sampling fanned across up to
    /// `shards` worker threads.
    ///
    /// Invocations are cut into fixed [`SPEC_BLOCK`]-sized blocks and
    /// block `b` jitters its specs from the stream
    /// [`SimRng::stream_seed`]`(seed ^ salt, b)`. Block boundaries never
    /// depend on the shard count, so the specs are **byte-identical at
    /// any `shards` value** — and a [`AzureTrace::truncated`] prefix
    /// keeps the exact jitter of the original trace's first invocations.
    pub fn to_task_specs_sharded(&self, shards: usize) -> Vec<TaskSpec> {
        self.map_task_specs_sharded(shards, |spec, _| spec)
    }

    /// Each invocation's kernel spec, jittered exactly as
    /// [`AzureTrace::to_task_specs_sharded`] jitters it, passed with the
    /// invocation through `f`: one vector of `f`'s results in trace order,
    /// built without materializing the specs first.
    pub fn map_task_specs_sharded<R, F>(&self, shards: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TaskSpec, &Invocation) -> R + Sync,
    {
        let blocks = self.invocations.len().div_ceil(SPEC_BLOCK);
        shard::run_sharded(blocks, shards, |range| {
            let start = range.start * SPEC_BLOCK;
            let end = (range.end * SPEC_BLOCK).min(self.invocations.len());
            let mut out = Vec::with_capacity(end - start);
            for block in range {
                let mut rng = SimRng::stream(self.seed ^ SPEC_JITTER_STREAM, block as u64);
                let start = block * SPEC_BLOCK;
                let end = (start + SPEC_BLOCK).min(self.invocations.len());
                for inv in &self.invocations[start..end] {
                    let spec = spec_from_sample(
                        inv.arrival,
                        inv.duration,
                        inv.mem_mib,
                        self.jitter,
                        &mut rng,
                    );
                    out.push(f(spec, inv));
                }
            }
            out
        })
    }

    /// Inter-arrival times between consecutive invocations (the workload
    /// file's IAT column).
    pub fn inter_arrival_times(&self) -> Vec<SimDuration> {
        self.invocations
            .windows(2)
            .map(|w| w[1].arrival.saturating_since(w[0].arrival))
            .collect()
    }

    /// Writes the workload file: header plus one
    /// `iat_us,fib_n,duration_us,mem_mib` row per invocation (Fig. 9 ①).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "iat_us,fib_n,duration_us,mem_mib")?;
        let mut prev = SimTime::ZERO;
        for inv in &self.invocations {
            let iat = inv.arrival.saturating_since(prev);
            prev = inv.arrival;
            writeln!(
                w,
                "{},{},{},{}",
                iat.as_micros(),
                inv.fib_n,
                inv.duration.as_micros(),
                inv.mem_mib
            )?;
        }
        Ok(())
    }

    /// Reads a workload file produced by [`AzureTrace::write_csv`].
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error for malformed rows, plus any I/O
    /// error from `r`.
    pub fn read_csv<R: Read>(r: R) -> std::io::Result<Self> {
        let bad = |line: usize, what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("workload file line {line}: {what}"),
            )
        };
        let mut invocations = Vec::new();
        let mut at = SimTime::ZERO;
        for (i, line) in BufReader::new(r).lines().enumerate() {
            let line = line?;
            if i == 0 {
                if line.trim() != "iat_us,fib_n,duration_us,mem_mib" {
                    return Err(bad(1, "unexpected header"));
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.trim().split(',').collect();
            if parts.len() != 4 {
                return Err(bad(i + 1, "expected 4 comma-separated fields"));
            }
            let iat: u64 = parts[0].parse().map_err(|_| bad(i + 1, "bad iat"))?;
            let fib_n: u32 = parts[1].parse().map_err(|_| bad(i + 1, "bad fib_n"))?;
            let dur: u64 = parts[2].parse().map_err(|_| bad(i + 1, "bad duration"))?;
            let mem: u32 = parts[3].parse().map_err(|_| bad(i + 1, "bad mem"))?;
            at += SimDuration::from_micros(iat);
            invocations.push(Invocation {
                arrival: at,
                fib_n,
                duration: SimDuration::from_micros(dur),
                mem_mib: mem,
            });
        }
        Ok(AzureTrace {
            invocations,
            durations: DurationDistribution::azure_like(),
            jitter: 0.0,
            seed: 0,
        })
    }
}

/// Synthesizes one minute's invocations into `out` — the per-unit body of
/// [`AzureTrace::generate_sharded`] and of the chunked
/// [`crate::stream::TraceStream`]. All randomness comes from the minute's
/// own stream, so the result depends only on `(seed, minute, count)`.
pub(crate) fn synth_minute(
    durations: &DurationDistribution,
    memory: &MemoryDistribution,
    seed: u64,
    minute: usize,
    count: usize,
    out: &mut Vec<Invocation>,
) {
    if count == 0 {
        return;
    }
    let mut rng = SimRng::stream(seed ^ MINUTE_BODY_STREAM, minute as u64);
    let class_counts = crate::arrivals::largest_remainder(durations.weights(), count);
    out.reserve(count);
    for (arrival, class) in arrivals_within_minute(minute, &class_counts) {
        let fib_n = FIB_MIN_N + class as u32;
        out.push(Invocation {
            arrival,
            fib_n,
            duration: durations.calibration().duration(fib_n),
            mem_mib: memory.sample(&mut rng),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w2_has_paper_size_and_horizon() {
        let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(10));
        assert_eq!(trace.len(), 1_244);
        let last = trace.invocations().last().unwrap().arrival;
        assert!(last < SimTime::from_secs(120), "W2 spans two minutes");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AzureTrace::generate(&TraceConfig::tiny());
        let b = AzureTrace::generate(&TraceConfig::tiny());
        assert_eq!(a.invocations(), b.invocations());
        let sa = a.to_task_specs();
        let sb = b.to_task_specs();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seed_different_trace() {
        let a = AzureTrace::generate(&TraceConfig::tiny());
        let b = AzureTrace::generate(&TraceConfig::tiny().with_seed(999));
        assert_ne!(a.invocations(), b.invocations());
    }

    #[test]
    fn invocations_sorted_and_in_range() {
        let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(20));
        let inv = trace.invocations();
        for w in inv.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for i in inv {
            assert!((36..=46).contains(&i.fib_n));
            assert!(i.mem_mib >= 128);
        }
    }

    #[test]
    fn specs_carry_jittered_work_and_expected_hint() {
        let trace = AzureTrace::generate(&TraceConfig::tiny());
        for (spec, inv) in trace.to_task_specs().iter().zip(trace.invocations()) {
            assert_eq!(spec.arrival, inv.arrival);
            assert_eq!(spec.expected, Some(inv.duration));
            let lo = inv.duration.mul_f64(0.97 - 1e-6);
            let hi = inv.duration.mul_f64(1.03 + 1e-6);
            assert!(spec.work >= lo && spec.work <= hi, "jitter out of band");
        }
    }

    #[test]
    fn csv_roundtrip_preserves_invocations() {
        let trace = AzureTrace::generate(&TraceConfig::tiny());
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let back = AzureTrace::read_csv(&buf[..]).unwrap();
        assert_eq!(trace.invocations(), back.invocations());
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(AzureTrace::read_csv(&b"nonsense"[..]).is_err());
        let bad_row = b"iat_us,fib_n,duration_us,mem_mib\n1,2\n";
        assert!(AzureTrace::read_csv(&bad_row[..]).is_err());
        let bad_field = b"iat_us,fib_n,duration_us,mem_mib\na,b,c,d\n";
        assert!(AzureTrace::read_csv(&bad_field[..]).is_err());
    }

    #[test]
    fn iat_reconstructs_arrivals() {
        let trace = AzureTrace::generate(&TraceConfig::tiny());
        let iats = trace.inter_arrival_times();
        assert_eq!(iats.len(), trace.len() - 1);
        let mut t = trace.invocations()[0].arrival;
        for (iat, inv) in iats.iter().zip(&trace.invocations()[1..]) {
            t += *iat;
            assert_eq!(t, inv.arrival);
        }
    }

    #[test]
    fn sharded_generation_matches_single_stream() {
        // The differential pin: N-shard output == the 1-shard reference
        // path, for random seeds, shapes and shard counts.
        faas_simcore::check::run("sharded trace == single-stream", 24, |g| {
            let cfg = TraceConfig {
                minutes: g.usize_in(1, 6),
                total_invocations: g.usize_in(1, 4_000),
                seed: g.u64_in(0, u64::MAX),
                jitter: g.f64_in(0.0, 0.2),
                arrivals: ArrivalConfig::default(),
            };
            let shards = g.usize_in(2, 9);
            let reference = AzureTrace::generate(&cfg);
            let fanned = AzureTrace::generate_sharded(&cfg, shards);
            assert_eq!(reference.invocations(), fanned.invocations());
            assert_eq!(
                reference.to_task_specs(),
                fanned.to_task_specs_sharded(shards)
            );
        });
    }

    #[test]
    fn truncated_prefix_keeps_original_jitter() {
        // Block-based jitter streams make a truncated trace's specs a
        // strict prefix of the full trace's specs, even across the
        // SPEC_BLOCK boundary.
        let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(4));
        assert!(trace.len() > SPEC_BLOCK, "test must span multiple blocks");
        let full = trace.to_task_specs();
        let keep = SPEC_BLOCK + 37;
        let prefix = trace.truncated(keep).to_task_specs();
        assert_eq!(&full[..keep], &prefix[..]);
    }

    #[test]
    fn duration_marginal_close_to_target() {
        // The per-minute largest-remainder split preserves the duration
        // weights almost exactly.
        let trace = AzureTrace::generate(&TraceConfig::w2());
        let n41_or_less = trace.invocations().iter().filter(|i| i.fib_n <= 41).count() as f64
            / trace.len() as f64;
        assert!(
            (n41_or_less - 0.92).abs() < 0.01,
            "p90 bucket share was {n41_or_less}"
        );
    }
}
