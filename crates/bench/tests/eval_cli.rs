//! End-to-end tests of the unified `faas-eval` runner: the registry
//! listing, argument errors, and `BENCH_THREADS` invariance through the
//! whole stack (sharded trace synthesis + parallel scenario cases).

use std::process::{Command, Output};

fn faas_eval() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faas-eval"))
}

fn run(mut cmd: Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{cmd:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn list_enumerates_every_registered_scenario() {
    let out = run({
        let mut c = faas_eval();
        c.arg("--list");
        c
    });
    let stdout = String::from_utf8(out.stdout).expect("utf8 listing");
    assert!(
        stdout.contains("# 37 scenarios"),
        "missing count footer:\n{stdout}"
    );
    for scenario in faas_bench::scenario::all() {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(scenario.id)),
            "scenario '{}' missing from --list:\n{stdout}",
            scenario.id
        );
    }
}

#[test]
fn table1_bytes_are_thread_count_invariant() {
    // A simulation scenario with parallel cases (table1 fans three policy
    // runs): its bytes must not depend on the fan width, downscaled to
    // keep the debug-profile test fast.
    let at_threads = |threads: &str| {
        run({
            let mut c = faas_eval();
            c.args(["--id", "table1"])
                .env("SCALE_DIV", "200")
                .env("BENCH_THREADS", threads);
            c
        })
        .stdout
    };
    let t1 = at_threads("1");
    let t4 = at_threads("4");
    assert_eq!(t1, t4, "table1 bytes depend on BENCH_THREADS");
    let text = String::from_utf8(t1).expect("utf8");
    for row in ["fifo", "cfs", "ours(hybrid)"] {
        assert!(text.contains(row), "missing row {row}:\n{text}");
    }
}

#[test]
fn cluster_scenario_listing_and_thread_invariance() {
    // `--tag cluster` must surface the three fleet scenarios...
    let out = run({
        let mut c = faas_eval();
        c.args(["--list", "--tag", "cluster"]);
        c
    });
    let listing = String::from_utf8(out.stdout).expect("utf8");
    for id in ["cluster01", "cluster02", "cluster03"] {
        assert!(
            listing.contains(id),
            "{id} missing from listing:\n{listing}"
        );
    }
    assert!(
        listing.contains("# 3 scenarios"),
        "count footer:\n{listing}"
    );

    // ...and a cluster run's stdout must be byte-identical at
    // BENCH_THREADS ∈ {1, 2, 4}: the machine fan merges in machine
    // order, never in completion order.
    let at_threads = |threads: &str| {
        run({
            let mut c = faas_eval();
            c.args(["--id", "cluster01"])
                .env("SCALE_DIV", "200")
                .env("BENCH_THREADS", threads);
            c
        })
        .stdout
    };
    let t1 = at_threads("1");
    let t2 = at_threads("2");
    let t4 = at_threads("4");
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "cluster01 bytes depend on BENCH_THREADS=2");
    assert_eq!(t1, t4, "cluster01 bytes depend on BENCH_THREADS=4");
    let text = String::from_utf8(t1).expect("utf8");
    for dispatch in [
        "random",
        "round-robin",
        "p2c",
        "least-outstanding",
        "keep-alive",
    ] {
        assert!(text.contains(dispatch), "missing {dispatch} row:\n{text}");
    }
}

#[test]
fn overload_scenarios_list_and_run_thread_invariant() {
    // `--tag overload` must surface exactly the two middleware scenarios
    // (the plain `cluster` tag must not match them)...
    let out = run({
        let mut c = faas_eval();
        c.args(["--list", "--tag", "overload"]);
        c
    });
    let listing = String::from_utf8(out.stdout).expect("utf8");
    for id in ["overload", "brownout"] {
        assert!(
            listing.contains(id),
            "{id} missing from listing:\n{listing}"
        );
    }
    assert!(
        listing.contains("# 2 scenarios"),
        "count footer:\n{listing}"
    );

    // ...and the materializing overload run's stdout must be
    // byte-identical across machine-fan widths: every admission, timeout
    // and breaker decision happens in the serial front-end pass.
    let at_threads = |threads: &str| {
        run({
            let mut c = faas_eval();
            c.args(["--id", "overload"])
                .env("SCALE_DIV", "200")
                .env("BENCH_THREADS", threads);
            c
        })
        .stdout
    };
    let t1 = at_threads("1");
    let t4 = at_threads("4");
    assert!(!t1.is_empty());
    assert_eq!(t1, t4, "overload bytes depend on BENCH_THREADS");
    let text = String::from_utf8(t1).expect("utf8");
    for row in ["bare", "admission", "timeout-5s-cancel", "full-stack"] {
        assert!(text.contains(row), "missing {row} row:\n{text}");
    }
    assert!(text.contains("lost_revenue_usd"), "header:\n{text}");
}

#[test]
fn chaos_scenarios_list_and_run_thread_invariant() {
    // `--tag chaos` must surface exactly the fault-injection scenario and
    // the autoscaler scenario...
    let out = run({
        let mut c = faas_eval();
        c.args(["--list", "--tag", "chaos"]);
        c
    });
    let listing = String::from_utf8(out.stdout).expect("utf8");
    for id in ["crash-storm", "autoscale"] {
        assert!(
            listing.contains(id),
            "{id} missing from listing:\n{listing}"
        );
    }
    assert!(
        listing.contains("# 2 scenarios"),
        "count footer:\n{listing}"
    );

    // ...and both runs' stdout must be byte-identical across machine-fan
    // widths: faults, retries and scaling decisions all live in the
    // serial front-end fold, and the trace + fault-plan generators shard
    // per minute.
    for id in ["crash-storm", "autoscale"] {
        let at_threads = |threads: &str| {
            run({
                let mut c = faas_eval();
                c.args(["--id", id])
                    .env("SCALE_DIV", "200")
                    .env("BENCH_THREADS", threads);
                c
            })
            .stdout
        };
        let t1 = at_threads("1");
        let t4 = at_threads("4");
        assert!(!t1.is_empty());
        assert_eq!(t1, t4, "{id} bytes depend on BENCH_THREADS");
    }
    let text = String::from_utf8(
        run({
            let mut c = faas_eval();
            c.args(["--id", "crash-storm"])
                .env("SCALE_DIV", "200")
                .env("BENCH_THREADS", "2");
            c
        })
        .stdout,
    )
    .expect("utf8");
    for row in ["no-chaos", "chaos", "chaos+middleware"] {
        assert!(text.contains(row), "missing {row} row:\n{text}");
    }
    assert!(text.contains("churn_usd"), "header:\n{text}");
}

#[test]
fn health_scenarios_list_and_run_thread_invariant() {
    // `--tag health` must surface exactly the two node-health scenarios...
    let out = run({
        let mut c = faas_eval();
        c.args(["--list", "--tag", "health"]);
        c
    });
    let listing = String::from_utf8(out.stdout).expect("utf8");
    for id in ["straggler-outliers", "retry-backoff"] {
        assert!(
            listing.contains(id),
            "{id} missing from listing:\n{listing}"
        );
    }
    assert!(
        listing.contains("# 2 scenarios"),
        "count footer:\n{listing}"
    );

    // ...and both runs' stdout must be byte-identical across machine-fan
    // widths: EWMAs, ejections, hedges and backoff delays all live in the
    // serial front-end fold.
    for id in ["straggler-outliers", "retry-backoff"] {
        let at_threads = |threads: &str| {
            run({
                let mut c = faas_eval();
                c.args(["--id", id])
                    .env("SCALE_DIV", "200")
                    .env("BENCH_THREADS", threads);
                c
            })
            .stdout
        };
        let t1 = at_threads("1");
        let t4 = at_threads("4");
        assert!(!t1.is_empty());
        assert_eq!(t1, t4, "{id} bytes depend on BENCH_THREADS");
    }
    let text = String::from_utf8(
        run({
            let mut c = faas_eval();
            c.args(["--id", "straggler-outliers"])
                .env("SCALE_DIV", "200")
                .env("BENCH_THREADS", "2");
            c
        })
        .stdout,
    )
    .expect("utf8");
    for row in ["no-chaos", "chaos+ejection", "chaos+ejection+hedging"] {
        assert!(text.contains(row), "missing {row} row:\n{text}");
    }
    assert!(text.contains("hedge_usd"), "header:\n{text}");
}

#[test]
fn cluster_xl_streams_deterministically_across_fan_widths() {
    // `--tag cluster-xl` must surface both streaming fleet scenarios
    // (and only them — the plain `cluster` tag must not match them)...
    let out = run({
        let mut c = faas_eval();
        c.args(["--list", "--tag", "cluster-xl"]);
        c
    });
    let listing = String::from_utf8(out.stdout).expect("utf8");
    for id in ["cluster-xl-512", "cluster-xl-1024"] {
        assert!(
            listing.contains(id),
            "{id} missing from listing:\n{listing}"
        );
    }
    assert!(
        listing.contains("# 2 scenarios"),
        "count footer:\n{listing}"
    );

    // ...and a streamed 512-machine run's stdout must be byte-identical
    // at machine-fan widths 1 and 4 (heavily downscaled: this is the
    // debug profile). Wall-clock/RSS live on stderr, outside the diff.
    let at_threads = |threads: &str| {
        run({
            let mut c = faas_eval();
            c.args(["--id", "cluster-xl-512"])
                .env("SCALE_DIV", "20000")
                .env("BENCH_THREADS", threads);
            c
        })
        .stdout
    };
    let t1 = at_threads("1");
    let t4 = at_threads("4");
    assert!(!t1.is_empty());
    assert_eq!(t1, t4, "cluster-xl-512 bytes depend on BENCH_THREADS");
    let text = String::from_utf8(t1).expect("utf8");
    assert!(text.contains("streaming run"), "header missing:\n{text}");
    assert!(text.contains("keep-alive"), "dispatch row missing:\n{text}");
}

#[test]
fn unknown_id_and_bad_args_fail_cleanly() {
    let out = faas_eval()
        .args(["--id", "no-such-scenario"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario id"));

    let out = faas_eval().arg("--bogus").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // A scenario that requires arguments reports its usage line.
    let out = faas_eval()
        .args(["--id", "compare"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: compare"));
}

#[test]
fn batch_mode_prefixes_each_scenario_with_a_banner() {
    // `--tag` runs fan scenarios in parallel but print in registry order.
    // The selection matches intro/fig02/fig10 (simulation-free) plus
    // make-workload, which batch mode must *skip* (it writes files) with
    // a stderr notice rather than touching the working tree.
    let out = run({
        let mut c = faas_eval();
        c.args(["--tag", "example", "--tag", "trace"])
            .env("BENCH_THREADS", "2")
            .env("SCALE_DIV", "40");
        c
    });
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("skipping make-workload"),
        "file-writing tool must be skipped in batch mode"
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    let banners: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("#### faas-eval | scenario="))
        .collect();
    // Registry order: intro, fig02, fig10.
    assert_eq!(
        banners.len(),
        3,
        "expected exactly 3 scenario banners:\n{text}"
    );
    let order: Vec<usize> = banners
        .iter()
        .filter_map(|b| {
            let id = b.split("scenario=").nth(1)?.split(' ').next()?;
            let id = id.trim_end_matches(|c: char| c == '|' || c.is_whitespace());
            faas_bench::scenario::all().iter().position(|s| s.id == id)
        })
        .collect();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(order, sorted, "banners out of registry order:\n{text}");
}
