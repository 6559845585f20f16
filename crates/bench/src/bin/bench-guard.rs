//! Advisory throughput regression guard for CI.
//!
//! ```text
//! bench-guard <committed-baseline.json> <fresh-run.json> [threshold]
//! ```
//!
//! Compares every benchmark's `events_per_sec` between two
//! `faas-bench/v1` documents (typically the committed `BENCH_sched.json`
//! and a fresh quick-mode `BENCH_sched.quick.json`) and prints a warning
//! for each row that regressed more than `threshold` (default 0.2 =
//! 20%). A row whose `events_per_iter` differs between the two documents
//! is compared on `median_ns` instead and listed with both counts.
//! Regressions do **not** fail the process — quick-mode samples on
//! shared CI hardware are too noisy for a hard gate — but unreadable or
//! schema-mismatched input exits non-zero, because that means the bench
//! harness itself broke.

use std::process::ExitCode;

use faas_bench::guard;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, fresh_path, threshold) = match args.as_slice() {
        [b, f] => (b.clone(), f.clone(), guard::DEFAULT_THRESHOLD),
        [b, f, t] => match t.parse::<f64>() {
            Ok(t) if t > 0.0 && t < 1.0 => (b.clone(), f.clone(), t),
            _ => {
                eprintln!("bench-guard: threshold must be a fraction in (0, 1), got {t}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: bench-guard <baseline.json> <fresh.json> [threshold]");
            return ExitCode::from(2);
        }
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("bench-guard: cannot read {path}: {e}"))
    };
    let (baseline, fresh) = match (read(&baseline_path), read(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let diff = match guard::compare_full(&baseline, &fresh) {
        Ok(diff) => diff,
        Err(e) => {
            eprintln!("bench-guard: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bench-guard: {} vs {} (warn threshold {:.0}%)",
        baseline_path,
        fresh_path,
        threshold * 100.0
    );
    // Sections that exist on only one side are advisory notes, never
    // errors: a freshly added bench group simply has no committed
    // baseline entry until the next full regeneration. The labels are
    // deliberately distinct per kind (new/dropped/unscored) — see
    // `guard::notes`.
    for line in guard::notes(&diff, &baseline_path) {
        println!("{line}");
    }
    let regressions = guard::report(&diff.comparisons, threshold, &mut std::io::stdout());
    if regressions > 0 {
        println!(
            "bench-guard: WARNING — {regressions} benchmark(s) regressed >{:.0}% \
             vs the committed baseline (advisory; not failing the build)",
            threshold * 100.0
        );
    } else {
        println!("bench-guard: no events/sec regressions beyond the threshold");
    }
    ExitCode::SUCCESS
}
