//! Layered end-to-end benchmark of the serverless-hybrid-sched workspace.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` repeats the workload through the library's own run paths
//! (`Simulation::run_slim`, `Cluster::run`, `Cluster::run_streaming`) for
//! `--seconds`, each repeat after one run of the [`reference`], checks
//! every simulated output, and prints the end-to-end metrics, timed as
//! [`untraced`] describes. `--trace 1` alternates that untraced run with a traced one
//! that makes the same public calls one at a time, each inside a span;
//! both must produce bit-identical outputs, and the per-layer metrics come
//! from the spans. The last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `README.md` describes
//! the workloads and what each metric should move.

mod analysis;
mod host;
mod marks;
mod outputs;
mod reference;
mod spans;
mod workloads;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::analysis::{median, medians, Metric};
use crate::host::{peak_rss_mib, Host};
use crate::marks::{Marks, Stretches};
use crate::outputs::Outputs;
use crate::spans::{write_tsv, Clock, Span};
use crate::workloads::{Params, Workload, DEFAULT_SEED, NAMES};

/// Fan width of every workload. Fixed so that results never depend on
/// `BENCH_THREADS`, and one, so that on a shared host with few cores the
/// run measures the program rather than how the host schedules threads,
/// and the marks of a repeat come in a fixed order.
const FAN_WIDTH: usize = 1;
/// Repeats an untraced run makes even when one outlasts `--seconds`.
const MIN_REPEATS: usize = 3;
/// Untraced/traced pairs a traced run makes even when one outlasts
/// `--seconds`.
const MIN_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        NAMES.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Output checks and operation counts over every run a process makes.
#[derive(Default)]
struct Checks {
    reference: Option<Outputs>,
    problems: Vec<String>,
    runs: usize,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn add(&mut self, w: &dyn Workload, out: Outputs, label: &str) {
        self.runs += 1;
        self.attempted += out.arrived;
        self.failed += out.stranded();
        if let Err(e) = out.check_conservation().and_then(|()| w.check(&out)) {
            self.problems
                .push(format!("{label} run {}: {e}", self.runs));
        }
        match &self.reference {
            None => self.reference = Some(out),
            Some(first) => {
                if let Some(d) = first.diff(&out) {
                    self.problems
                        .push(format!("{label} run {} differs from run 1: {d}", self.runs));
                }
            }
        }
    }

    fn reference(&self) -> &Outputs {
        self.reference.as_ref().expect("every mode makes a run")
    }
}

/// What one benchmark process reports.
struct Outcome {
    checks: Checks,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.problems.is_empty(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// One library run: its outputs and the marks it passed, its start first
/// and its end last. The second mark is its first trace, dispatch or
/// kernel call.
fn library_run(w: &dyn Workload) -> Result<(Outputs, Vec<Instant>), String> {
    let marks = Marks::default();
    marks.mark();
    let out = w
        .run(&marks)
        .map_err(|e| format!("simulation failed: {e}"))?;
    marks.mark();
    let marks = marks.into_vec();
    if marks.len() < 3 {
        return Err("the run made no trace, dispatch or kernel call".to_owned());
    }
    Ok((out, marks))
}

/// Wall time from the first to the last of `marks`, in seconds.
fn span_s(marks: &[Instant]) -> f64 {
    match marks {
        [first, .., last] => last.duration_since(*first).as_secs_f64(),
        _ => 0.0,
    }
}

/// The fastest of `walls` (whole-repeat times).
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Repeats the library run for `budget`, each repeat after one run of the
/// reference, and reports the end-to-end metrics.
///
/// Other tenants of a shared host only ever slow the work down, so each
/// stretch between two marks counts at its fastest over the repeats. The
/// run's time is the sum of those, and `invocations_per_s` scales it by the
/// reference's speed, taken the same way.
fn untraced(w: &dyn Workload, budget: Duration) -> Result<Outcome, String> {
    let begin = Instant::now();
    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let (mut stretches, mut reference) = (Stretches::default(), Stretches::default());
    while walls.len() < MIN_REPEATS || begin.elapsed() < budget {
        let marks = Marks::default();
        reference::run(&marks);
        reference.add(&marks.into_vec())?;
        let (out, marks) = library_run(w)?;
        walls.push(span_s(&marks));
        if let Err(e) = stretches.add(&marks) {
            checks.problems.push(e);
        }
        checks.add(w, out, "untraced");
    }
    let peak_rss = peak_rss_mib().ok_or("VmHWM is unavailable")?;
    let out = checks.reference();
    let q = &out.subject;
    // Above 1 on a host slower than the one the bounds were set on.
    let slowdown = reference.total() / reference::NOMINAL_S;
    let run_s = stretches.total();
    let metrics = vec![
        Metric::new(
            "invocations_per_s",
            out.arrived as f64 * slowdown / run_s,
            "1/s",
        ),
        Metric::new("setup_s", stretches.get(0), "s"),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
        Metric::new(
            "sim_turnaround_p50_s",
            q.turnaround_p50_us as f64 / 1e6,
            "sim_s",
        ),
        Metric::new(
            "sim_turnaround_p99_s",
            q.turnaround_p99_us as f64 / 1e6,
            "sim_s",
        ),
        Metric::new("sim_cost_usd", out.cost_usd(), "USD"),
        Metric::new(
            "sim_completed_share",
            out.completed() as f64 / out.arrived as f64,
            "ratio",
        ),
    ];
    let notes = vec![
        format!(
            "repeats={} of {} invocations each; wall s median={} fastest={}; \
             every stretch at its fastest={} s over {} stretches, {} invocations per host second",
            walls.len(),
            out.arrived,
            median(&walls),
            fastest(&walls),
            run_s,
            stretches.len(),
            out.arrived as f64 / run_s
        ),
        format!(
            "reference={} s against {} s nominal: slowdown={}",
            reference.total(),
            reference::NOMINAL_S,
            slowdown
        ),
        format!(
            "sim_turnaround quantiles over n={} completed invocations of the subject run",
            q.count
        ),
        ledger(out),
    ];
    Ok(Outcome {
        checks,
        metrics,
        notes,
    })
}

/// Alternates library and traced runs for `budget` and reports the
/// per-layer metrics, writing the last traced run's spans to `spans_to`.
fn traced(
    w: &dyn Workload,
    budget: Duration,
    width: usize,
    spans_to: &Path,
    host: &Host,
) -> Result<Outcome, String> {
    let begin = Instant::now();
    let mut checks = Checks::default();
    let (mut plain, mut walls, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Vec<Span> = Vec::new();
    while walls.len() < MIN_PAIRS || begin.elapsed() < budget {
        let (out, marks) = library_run(w)?;
        plain.push(span_s(&marks));
        checks.add(w, out, "untraced");

        let run = u32::try_from(walls.len()).expect("fewer than 2^32 runs");
        let mut sp = Clock::new(run).recorder(None);
        let start = Instant::now();
        let out = w
            .run_traced(&mut sp)
            .map_err(|e| format!("simulation failed: {e}"))?;
        walls.push(start.elapsed().as_secs_f64());
        last = sp.into_spans();
        layers.push(analysis::per_layer(&last, &out, width));
        checks.add(w, out, "traced");
    }
    let mut metrics = medians(&layers);
    metrics.push(Metric::new(
        "tracing.overhead_ratio",
        fastest(&walls) / fastest(&plain),
        "ratio",
    ));
    let mut notes = vec![
        format!("pairs={} of untraced and traced runs", walls.len()),
        ledger(checks.reference()),
    ];
    notes.push(match write_spans(spans_to, host, &last) {
        Ok(()) => format!(
            "{} spans of the last traced run written to {}",
            last.len(),
            spans_to.display()
        ),
        Err(e) => format!("spans not written to {}: {e}", spans_to.display()),
    });
    Ok(Outcome {
        checks,
        metrics,
        notes,
    })
}

/// What happened to the arrivals of one run.
fn ledger(out: &Outputs) -> String {
    let mut line = format!(
        "per run: arrived={} completed={} kernel_cancelled={}",
        out.arrived,
        out.completed(),
        out.cancelled()
    );
    if let Some(f) = &out.front {
        let (o, c, h) = (&f.overload, &f.chaos, &f.health);
        line += &format!(
            " shed={} (concurrency={} rate={} timeout={} breaker={}) crashes={} retries={} \
             abandoned={} hedges={} ejections={} cold_starts={} unaccounted={}",
            o.total_shed(),
            o.shed_concurrency,
            o.shed_rate,
            o.shed_timeout,
            o.shed_breaker,
            c.crashes,
            c.retries,
            c.abandoned,
            h.hedges,
            h.ejections,
            f.cold_starts,
            out.unaccounted()
        );
    }
    line
}

fn write_spans(path: &Path, host: &Host, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    write_tsv(&mut w, &host.to_string(), spans)?;
    w.flush()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = Params {
        seed: args.seed,
        width: FAN_WIDTH,
    };
    let Some(workload) = workloads::build(&args.workload, params) else {
        eprintln!("perfbench: unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let host = Host::detect(nproc, params.width, args.seed);
    println!(
        "# perfbench workload={} trace={} seconds={} | {host}",
        args.workload,
        u8::from(args.trace),
        args.seconds
    );
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        // Inside the checkout: the build directory the run already uses.
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let spans_to = target
            .join("perfbench")
            .join(format!("spans-{}.tsv", args.workload));
        traced(workload.as_ref(), budget, params.width, &spans_to, &host)
    } else {
        untraced(workload.as_ref(), budget)
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .checks
                .problems
                .push(format!("{} is not a number: {}", m.name, m.value));
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations attempted={} failed={}",
        outcome.checks.attempted, outcome.checks.failed
    );
    for p in &outcome.checks.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "checks: {}",
        if outcome.checks.problems.is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );
    println!("{}", outcome.json());
    if outcome.checks.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
