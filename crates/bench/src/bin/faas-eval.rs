//! The unified evaluation runner: lists, filters and runs every
//! registered scenario of the paper's evaluation.
//!
//! ```text
//! faas-eval --list [--tag <t> ...]        # enumerate scenarios
//! faas-eval --id <id> [-- <args>...]      # run one scenario
//! faas-eval --tag <t> [--tag <u> ...]     # run all matching scenarios
//! faas-eval --all                         # run everything batchable
//! ```
//!
//! Batch runs (`--tag`/`--all`) fan whole scenarios across
//! `BENCH_THREADS` workers (`faas_bench::par`) and print each scenario's
//! buffered output in registry order behind a `#### faas-eval` banner, so
//! bytes never depend on the thread count. Scenarios that take arguments
//! or write files (`compare`, `make-workload`) are skipped in batch mode
//! with a notice — run them explicitly via `--id`.
//!
//! Environment: `SCALE_DIV=<n>` downscales every workload;
//! `BENCH_THREADS=<n>` caps each parallel fan (output is byte-identical
//! at any setting). Note that fans nest: a batch worker running a sweep
//! scenario spawns that scenario's own case workers, so a batch's peak
//! thread count can approach `BENCH_THREADS`²; on small machines set a
//! modest explicit value for large batches.

use std::io::{self, Write};
use std::process::ExitCode;

use faas_bench::par;
use faas_bench::scenario::{self, Scenario};

const USAGE: &str = "\
usage: faas-eval --list [--tag <t> ...]
       faas-eval --id <id> [-- <args>...]
       faas-eval --tag <t> [--tag <u> ...]
       faas-eval --all
see docs/SCENARIOS.md for the scenario catalog";

enum Mode {
    Help,
    List(Vec<String>),
    RunId(String, Vec<String>),
    RunTags(Vec<String>),
    RunAll,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut list = false;
    let mut all = false;
    let mut help = false;
    let mut id: Option<String> = None;
    let mut id_args: Vec<String> = Vec::new();
    let mut tags: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" | "-l" => list = true,
            "--all" | "-a" => all = true,
            "--help" | "-h" => help = true,
            "--id" | "-i" => {
                let v = it.next().ok_or("--id needs a scenario id")?;
                if id.replace(v.clone()).is_some() {
                    return Err("--id may only be given once".to_string());
                }
            }
            "--tag" | "-t" => {
                tags.push(it.next().ok_or("--tag needs a tag")?.clone());
            }
            "--" => {
                id_args.extend(it.by_ref().cloned());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if help {
        return Ok(Mode::Help);
    }
    if id.is_none() && !id_args.is_empty() {
        return Err("'-- <args>' only makes sense with --id".to_string());
    }
    match (list, id, all) {
        (true, None, false) => Ok(Mode::List(tags)),
        (false, Some(id), false) if tags.is_empty() => Ok(Mode::RunId(id, id_args)),
        (false, Some(_), false) => Err("--id and --tag are mutually exclusive".to_string()),
        (false, None, true) if tags.is_empty() => Ok(Mode::RunAll),
        (false, None, true) => Err("--all runs everything; use --tag alone to filter".to_string()),
        (false, None, false) if !tags.is_empty() => Ok(Mode::RunTags(tags)),
        (false, None, false) => Err(String::new()),
        _ => Err("--list, --id and --all are mutually exclusive".to_string()),
    }
}

fn matches_tags(s: &Scenario, tags: &[String]) -> bool {
    tags.is_empty() || tags.iter().any(|t| s.has_tag(t))
}

fn print_list(tags: &[String]) {
    let selected: Vec<&Scenario> = scenario::all()
        .iter()
        .filter(|s| matches_tags(s, tags))
        .collect();
    println!(
        "{:<16} {:<6} {:<34} {:<18} title",
        "id", "class", "tags", "paper"
    );
    for s in &selected {
        println!(
            "{:<16} {:<6} {:<34} {:<18} {}",
            s.id,
            s.class.label(),
            s.tags.join(","),
            s.paper_ref,
            s.title
        );
    }
    println!("# {} scenarios", selected.len());
}

fn run_single(id: &str, args: &[String]) -> ExitCode {
    let Some(s) = scenario::find(id) else {
        eprintln!("unknown scenario id '{id}' (see faas-eval --list)");
        return ExitCode::FAILURE;
    };
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    let result = s.run_to(&mut out, args);
    if let Err(e) = out.flush() {
        eprintln!("{id}: {e}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_batch(selected: Vec<&'static Scenario>) -> ExitCode {
    let (runnable, skipped): (Vec<_>, Vec<_>) =
        selected.into_iter().partition(|s| s.usage.is_none());
    for s in &skipped {
        eprintln!(
            "skipping {}: takes arguments or writes files ({}); run it with --id {}",
            s.id,
            s.usage.unwrap_or_default(),
            s.id
        );
    }
    if runnable.is_empty() {
        eprintln!("no runnable scenarios selected");
        return ExitCode::FAILURE;
    }
    // One buffered job per scenario; results come back in input order, so
    // the concatenated output is independent of BENCH_THREADS.
    let outputs = par::par_map(runnable.clone(), |_, s| {
        let mut buf = Vec::new();
        let result = s.run_to(&mut buf, &[]);
        (buf, result)
    });
    let mut failures = 0usize;
    if let Err(e) = write_batch(&runnable, &outputs, &mut failures) {
        eprintln!("faas-eval: writing output failed: {e}");
        return ExitCode::FAILURE;
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes every scenario's banner + buffered output, reporting scenario
/// failures on stderr. Any stdout error aborts immediately — silently
/// dropping output must not exit 0.
fn write_batch(
    runnable: &[&'static Scenario],
    outputs: &[(Vec<u8>, Result<(), scenario::ScenarioError>)],
    failures: &mut usize,
) -> io::Result<()> {
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    for (s, (buf, result)) in runnable.iter().zip(outputs) {
        writeln!(out, "#### faas-eval | scenario={} | {}", s.id, s.paper_ref)?;
        out.write_all(buf)?;
        if let Err(e) = result {
            *failures += 1;
            eprintln!("{}: {e}", s.id);
        }
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Mode::List(tags)) => {
            print_list(&tags);
            ExitCode::SUCCESS
        }
        Ok(Mode::RunId(id, id_args)) => run_single(&id, &id_args),
        Ok(Mode::RunTags(tags)) => run_batch(
            scenario::all()
                .iter()
                .filter(|s| matches_tags(s, &tags))
                .collect(),
        ),
        Ok(Mode::RunAll) => run_batch(scenario::all().iter().collect()),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
