//! Validates the committed `BENCH_sched.json` perf baseline: well-formed
//! JSON (in-tree checker, no serde) with the expected schema marker and
//! result rows. CI runs this after regenerating the file in quick mode,
//! so a harness change that corrupts the baseline fails the build.

use faas_bench::jsoncheck;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");

fn baseline() -> String {
    std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!(
            "BENCH_sched.json must be committed at the workspace root \
             (regenerate with `cargo bench -p faas-bench --bench sched_hot_paths`): {e}"
        )
    })
}

#[test]
fn baseline_is_well_formed_json() {
    let text = baseline();
    jsoncheck::validate(&text).expect("BENCH_sched.json is malformed");
}

/// Quick-mode runs write `BENCH_sched.quick.json` next to the committed
/// baseline (so they can never clobber it); when one exists — e.g. right
/// after CI's smoke run — it must be well-formed too.
#[test]
fn quick_output_if_present_is_well_formed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.quick.json");
    if let Ok(text) = std::fs::read_to_string(path) {
        jsoncheck::validate(&text).expect("BENCH_sched.quick.json is malformed");
        assert!(
            text.contains("\"quick\": true"),
            "quick output must be marked quick"
        );
    }
}

/// The `table_figures` bench commits its own baseline with per-scenario
/// wall-clock sections; it must stay well-formed and carry the registry's
/// headline scenarios.
#[test]
fn figures_baseline_is_well_formed_with_scenario_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "BENCH_figures.json must be committed at the workspace root \
             (regenerate with `cargo bench -p faas-bench --bench table_figures`): {e}"
        )
    });
    jsoncheck::validate(&text).expect("BENCH_figures.json is malformed");
    assert!(
        text.contains("\"schema\": \"faas-bench/v1\""),
        "schema marker missing"
    );
    for name in [
        "\"name\": \"fig11\"",
        "\"name\": \"fig12\"",
        "\"name\": \"table1\"",
    ] {
        assert!(text.contains(name), "figures baseline missing row: {name}");
    }
}

#[test]
fn baseline_has_schema_and_expected_rows() {
    let text = baseline();
    assert!(
        text.contains("\"schema\": \"faas-bench/v1\""),
        "schema marker missing"
    );
    // The hot-path benches that must always be present in the baseline.
    for name in [
        "\"name\": \"fifo\"",
        "\"name\": \"cfs\"",
        "\"name\": \"hybrid\"",
        "\"name\": \"event_queue_schedule_pop_1k\"",
        "\"name\": \"chaos_autoscale_fault_plan\"",
        // The dispatch-tier scaling rows: the bench-guard quick run
        // watches these for O(M) creep in the front-end fold.
        "\"name\": \"dispatch_bare_16m\"",
        "\"name\": \"dispatch_overload_256m\"",
        "\"name\": \"dispatch_health_1024m\"",
        // Rows that eject, so the restricted-candidate path is watched.
        "\"name\": \"dispatch_ejecting_16m\"",
        "\"name\": \"dispatch_ejecting_256m\"",
        "\"name\": \"dispatch_ejecting_1024m\"",
    ] {
        assert!(text.contains(name), "baseline missing row: {name}");
    }
    // The core-scaling rows: constant load per core at 4, 50 and 100
    // cores, so the bench-guard quick run catches per-core creep in the
    // kernel's per-event path.
    for policy in ["fifo", "cfs", "hybrid"] {
        for cores in [4, 50, 100] {
            let name = format!("\"group\": \"core_scaling\", \"name\": \"{policy}_{cores}c\"");
            assert!(text.contains(&name), "baseline missing row: {name}");
        }
    }
    // The light-load hybrid row: long functions alone on their CFS cores,
    // so most events are slice expiries renewed in place. The
    // bench-guard quick run catches a regression of that path.
    let name = "\"group\": \"light_load\", \"name\": \"hybrid_50c\"";
    assert!(text.contains(name), "baseline missing row: {name}");
    // The saturated rows: long CFS queues, so most events are slice
    // expiries that hand the core to another queued task. The bench-guard
    // quick run catches a regression of that path.
    for policy in ["cfs", "hybrid"] {
        let name = format!("\"group\": \"saturated\", \"name\": \"{policy}_50c\"");
        assert!(text.contains(&name), "baseline missing row: {name}");
    }
    // Every row must carry a real group label; `"group": ""` means a
    // bench was registered outside a benchmark_group again.
    assert!(
        !text.contains("\"group\": \"\""),
        "baseline has a row with an empty group label"
    );
    // Regression tracking requires the fields future PRs diff against.
    for field in [
        "\"median_ns\"",
        "\"min_ns\"",
        "\"mad_ns\"",
        "\"events_per_sec\"",
    ] {
        assert!(text.contains(field), "baseline missing field: {field}");
    }
}
