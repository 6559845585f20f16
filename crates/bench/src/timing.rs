//! A minimal wall-clock benchmark harness with regression tracking.
//!
//! The offline build environment has no `criterion`, so the `benches/`
//! targets (registered with `harness = false`) use this module instead.
//! It keeps criterion's call shape — groups, `bench_function`, a
//! [`Bencher`] passed to the closure, [`black_box`], `throughput` — and
//! reports per-iteration wall time on stdout.
//!
//! Regression-grade measurement on a noisy host needs more than raw
//! wall-clock samples, so the harness:
//!
//! * runs configurable **warmup** iterations before timing (defaults to
//!   3; first-touch page faults and cold caches otherwise skew `min`);
//! * rejects **outliers** by median-absolute-deviation: samples farther
//!   than 5×MAD from the median (a descheduled thread, a GC-less but
//!   IRQ-ful host) are dropped and reported as rejected;
//! * reports **throughput** (events/sec) for benchmarks that declare how
//!   many kernel events one iteration processes, making runs comparable
//!   across workload-size changes;
//! * collects every measurement into a machine-readable [`BenchResult`]
//!   list that [`Bench::write_json`] serializes (hand-rolled, no serde)
//!   so CI can diff a committed baseline like `BENCH_sched.json`.
//!
//! Command-line arguments that do not start with `-` act as substring
//! filters on `group/name` benchmark ids, matching `cargo bench <filter>`
//! usage: a filter selects a single row or a whole group.
//! Setting the `BENCH_QUICK` environment variable caps sampling for CI
//! smoke runs (3 samples, 1 warmup).

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Samples farther than this many MADs from the median are rejected.
const MAD_CUTOFF: u32 = 5;

/// One benchmark's aggregated measurement (after outlier rejection).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name, empty for top-level benchmarks.
    pub group: String,
    /// Benchmark name.
    pub name: String,
    /// Timed samples recorded.
    pub samples: usize,
    /// Samples kept after MAD-based outlier rejection.
    pub kept: usize,
    /// Fastest kept sample.
    pub min: Duration,
    /// Median of the kept samples.
    pub median: Duration,
    /// Mean of the kept samples.
    pub mean: Duration,
    /// Median absolute deviation of all samples (the rejection scale).
    pub mad: Duration,
    /// Kernel events (or items) processed per iteration, if declared.
    pub events_per_iter: Option<u64>,
}

impl BenchResult {
    /// Events per second at the median sample, if throughput was declared.
    pub fn events_per_sec(&self) -> Option<f64> {
        let n = self.events_per_iter?;
        let secs = self.median.as_secs_f64();
        if secs > 0.0 {
            Some(n as f64 / secs)
        } else {
            None
        }
    }
}

/// Top-level harness: owns the name filters, defaults, and results.
#[derive(Debug)]
pub struct Bench {
    filters: Vec<String>,
    sample_size: usize,
    warmup: usize,
    quick: bool,
    results: Vec<BenchResult>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            filters: Vec::new(),
            sample_size: 20,
            warmup: 3,
            quick: false,
            results: Vec::new(),
        }
    }
}

impl Bench {
    /// Builds a harness from `std::env::args`, treating every non-flag
    /// argument as a name filter (flags like `--bench` are ignored), and
    /// from the `BENCH_QUICK` environment variable (smoke-run mode).
    pub fn from_env() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Bench {
            filters,
            quick: std::env::var_os("BENCH_QUICK").is_some(),
            ..Bench::default()
        }
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        println!("group: {name}");
        Group {
            bench: self,
            name: name.to_string(),
            sample_size: None,
            throughput: None,
        }
    }

    /// Times one benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let samples = self.sample_size;
        self.run_one("", name, samples, None, f);
    }

    /// All results measured so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Whether name filters are active (a filtered run measures only a
    /// subset, so callers should not overwrite a committed baseline).
    pub fn filtered(&self) -> bool {
        !self.filters.is_empty()
    }

    /// Whether quick mode (`BENCH_QUICK`) is active (capped sampling —
    /// callers should not overwrite a full-fidelity baseline either).
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Writes the collected results as a JSON baseline (e.g.
    /// `BENCH_sched.json`), for CI smoke checks and PR-to-PR comparison.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"faas-bench/v1\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"group\": \"{}\", ", escape_json(&r.group)));
            out.push_str(&format!("\"name\": \"{}\", ", escape_json(&r.name)));
            out.push_str(&format!("\"samples\": {}, ", r.samples));
            out.push_str(&format!("\"kept\": {}, ", r.kept));
            out.push_str(&format!("\"min_ns\": {}, ", r.min.as_nanos()));
            out.push_str(&format!("\"median_ns\": {}, ", r.median.as_nanos()));
            out.push_str(&format!("\"mean_ns\": {}, ", r.mean.as_nanos()));
            out.push_str(&format!("\"mad_ns\": {}", r.mad.as_nanos()));
            if let Some(n) = r.events_per_iter {
                out.push_str(&format!(", \"events_per_iter\": {n}"));
            }
            if let Some(eps) = r.events_per_sec() {
                out.push_str(&format!(", \"events_per_sec\": {eps:.1}"));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        std::fs::write(path, out)
    }

    fn matches(&self, group: &str, name: &str) -> bool {
        if self.filters.is_empty() {
            return true;
        }
        let id = format!("{group}/{name}");
        self.filters.iter().any(|f| id.contains(f.as_str()))
    }

    fn run_one<F>(
        &mut self,
        group: &str,
        name: &str,
        samples: usize,
        throughput: Option<u64>,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher),
    {
        if !self.matches(group, name) {
            return;
        }
        let (samples, warmup) = if self.quick {
            (samples.min(3), 1)
        } else {
            (samples, self.warmup)
        };
        let mut b = Bencher {
            samples,
            warmup,
            times: Vec::with_capacity(samples),
        };
        f(&mut b);
        let times = b.times;
        if times.is_empty() {
            println!("  {name:<40} (no samples)");
            return;
        }
        let result = summarize(group, name, &times, throughput);
        let eps = match result.events_per_sec() {
            Some(e) => format!("  {:>10.3} Mevents/s", e / 1e6),
            None => String::new(),
        };
        println!(
            "  {name:<40} min {:>12?}  median {:>12?}  mean {:>12?}  ({}/{} samples){eps}",
            result.min, result.median, result.mean, result.kept, result.samples,
        );
        self.results.push(result);
    }
}

fn abs_diff(a: Duration, b: Duration) -> Duration {
    a.abs_diff(b)
}

/// Computes the outlier-rejected summary of one benchmark's samples.
fn summarize(group: &str, name: &str, times: &[Duration], throughput: Option<u64>) -> BenchResult {
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    let med = sorted[sorted.len() / 2];
    let mut deviations: Vec<Duration> = sorted.iter().map(|t| abs_diff(*t, med)).collect();
    deviations.sort_unstable();
    let mad = deviations[deviations.len() / 2];
    let kept: Vec<Duration> = if mad > Duration::ZERO {
        let cutoff = mad * MAD_CUTOFF;
        sorted
            .iter()
            .copied()
            .filter(|t| abs_diff(*t, med) <= cutoff)
            .collect()
    } else {
        sorted.clone()
    };
    debug_assert!(!kept.is_empty(), "median is always within the cutoff");
    let min = kept[0];
    let median = kept[kept.len() / 2];
    let mean = kept.iter().sum::<Duration>() / kept.len() as u32;
    BenchResult {
        group: group.to_string(),
        name: name.to_string(),
        samples: sorted.len(),
        kept: kept.len(),
        min,
        median,
        mean,
        mad,
        events_per_iter: throughput,
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A group of benchmarks sharing sample-size and throughput overrides.
#[derive(Debug)]
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<u64>,
}

impl Group<'_> {
    /// Overrides the number of timed iterations for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Declares how many kernel events (or items) one iteration of the
    /// following benchmarks processes; enables events/sec reporting.
    pub fn throughput(&mut self, events_per_iter: u64) -> &mut Self {
        self.throughput = Some(events_per_iter);
        self
    }

    /// Times one benchmark in the group.
    pub fn bench_function<N: AsRef<str>, F>(&mut self, name: N, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let samples = self.sample_size.unwrap_or(self.bench.sample_size);
        let group = self.name.clone();
        self.bench
            .run_one(&group, name.as_ref(), samples, self.throughput, f);
    }

    /// Times `routine` as the row `name`, declaring as its throughput the
    /// events `count` reads off one untimed run's output (`count` may
    /// also check that output). A row no filter selects never runs
    /// `routine` at all, so a filtered run skips every other row's
    /// set-up.
    pub fn bench_counted<N, T, F, C>(&mut self, name: N, mut routine: F, count: C)
    where
        N: AsRef<str>,
        F: FnMut() -> T,
        C: FnOnce(T) -> u64,
    {
        if !self.bench.matches(&self.name, name.as_ref()) {
            return;
        }
        let events = count(routine());
        self.throughput(events);
        self.bench_function(name, |b| b.iter(&mut routine));
    }

    /// Ends the group (exists for criterion call-shape compatibility).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; [`Bencher::iter`] does the timing.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    warmup: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` for the configured warmup iterations, then `sample_size`
    /// timed iterations.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        for _ in 0..self.warmup {
            black_box(f());
        }
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            self.times.push(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(samples: usize) -> Bench {
        Bench {
            sample_size: samples,
            warmup: 1,
            ..Bench::default()
        }
    }

    #[test]
    fn bencher_collects_requested_samples() {
        let mut bench = bench(3);
        let mut calls = 0u32;
        bench.bench_function("noop", |b| {
            b.iter(|| calls += 1);
        });
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
        assert_eq!(bench.results().len(), 1);
        assert_eq!(bench.results()[0].samples, 3);
    }

    #[test]
    fn default_warmup_runs_before_timing() {
        let mut bench = Bench {
            sample_size: 2,
            ..Bench::default()
        };
        let mut calls = 0u32;
        bench.bench_function("warm", |b| b.iter(|| calls += 1));
        // 3 default warm-ups + 2 samples.
        assert_eq!(calls, 5);
    }

    #[test]
    fn filters_skip_non_matching_names() {
        let mut bench = Bench {
            filters: vec!["only-this".into()],
            ..bench(3)
        };
        let mut ran = false;
        bench.bench_function("something-else", |b| {
            b.iter(|| ran = true);
        });
        assert!(!ran);
        assert!(bench.results().is_empty());
        bench.bench_function("yes-only-this-one", |b| {
            b.iter(|| ran = true);
        });
        assert!(ran);
    }

    #[test]
    fn filters_match_the_group_too() {
        let mut bench = Bench {
            filters: vec!["picked".into()],
            ..bench(1)
        };
        let mut calls = 0u32;
        let mut g = bench.benchmark_group("picked");
        g.bench_function("a", |b| b.iter(|| calls += 1));
        g.bench_function("b", |b| b.iter(|| calls += 1));
        g.finish();
        let mut g = bench.benchmark_group("other");
        g.bench_function("c", |b| b.iter(|| calls += 1));
        g.finish();
        let names: Vec<&str> = bench.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn counted_rows_run_their_routine_only_when_selected() {
        let mut bench = Bench {
            filters: vec!["g/picked".into()],
            ..bench(2)
        };
        let mut skipped = 0u32;
        let mut picked = 0u32;
        let mut g = bench.benchmark_group("g");
        g.bench_counted("other", || skipped += 1, |()| 1);
        g.bench_counted(
            "picked",
            || {
                picked += 1;
                7u64
            },
            |events| events,
        );
        g.finish();
        assert_eq!(skipped, 0, "an unselected row's routine never runs");
        assert_eq!(picked, 4, "1 counting run + 1 warm-up + 2 samples");
        assert_eq!(bench.results().len(), 1);
        assert_eq!(bench.results()[0].events_per_iter, Some(7));
    }

    #[test]
    fn group_sample_size_overrides_default() {
        let mut bench = bench(50);
        let mut calls = 0u32;
        let mut g = bench.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("counted", |b| b.iter(|| calls += 1));
        g.finish();
        assert_eq!(calls, 3); // 1 warm-up + 2 samples
        assert_eq!(bench.results()[0].group, "g");
    }

    #[test]
    fn mad_rejects_a_gross_outlier() {
        let times: Vec<Duration> = (0..19)
            .map(|i| Duration::from_micros(100 + i % 3))
            .chain([Duration::from_millis(100)]) // a 1000x outlier
            .collect();
        let r = summarize("g", "n", &times, None);
        assert_eq!(r.samples, 20);
        assert_eq!(r.kept, 19, "the outlier must be rejected");
        assert!(r.median < Duration::from_micros(200));
        assert!(
            r.mean < Duration::from_micros(200),
            "mean unaffected by the rejected outlier"
        );
    }

    #[test]
    fn identical_samples_keep_everything() {
        let times = vec![Duration::from_micros(50); 8];
        let r = summarize("", "n", &times, None);
        assert_eq!(r.kept, 8);
        assert_eq!(r.mad, Duration::ZERO);
        assert_eq!(r.median, Duration::from_micros(50));
    }

    #[test]
    fn throughput_reports_events_per_sec() {
        let times = vec![Duration::from_millis(2); 5];
        let r = summarize("g", "n", &times, Some(10_000));
        let eps = r.events_per_sec().unwrap();
        assert!((eps - 5_000_000.0).abs() < 1.0, "got {eps}");
    }

    #[test]
    fn json_baseline_roundtrips_through_validator() {
        let mut bench = bench(2);
        let mut g = bench.benchmark_group("grp");
        g.sample_size(2).throughput(1_000);
        g.bench_function("fast\"name", |b| b.iter(|| black_box(2 + 2)));
        g.finish();
        let path = std::env::temp_dir().join("faas_bench_timing_test.json");
        let path = path.to_str().unwrap();
        bench.write_json(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        crate::jsoncheck::validate(&text).expect("emitted JSON must be well-formed");
        assert!(text.contains("\"schema\": \"faas-bench/v1\""));
        assert!(text.contains("events_per_sec"));
        assert!(text.contains("fast\\\"name"));
        let _ = std::fs::remove_file(path);
    }
}
