//! Process-mode figure scenarios (§I–§VI): CDFs, sweeps and cost plots.
//!
//! Every multi-simulation scenario builds one job per independent run and
//! fans the whole batch over [`par::run_all`], then writes results in
//! input order — stdout is byte-identical at any `BENCH_THREADS`.

use azure_trace::{
    burstiness_cv, ks_statistic, per_minute_counts, ArrivalConfig, AzureTrace,
    DurationDistribution, EmpiricalCdf, TraceConfig,
};
use faas_kernel::{CostModel, MachineConfig, SlimReport, TaskSpec};
use faas_metrics::{Metric, MetricSummary, TaskRecord};
use faas_policies::{Cfs, Edf, Fifo, Mlfq, MlfqParams, Sfs};
use faas_simcore::{SimDuration, SimRng, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy};
use lambda_pricing::{cost_ratio, PriceModel};

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{
    paper_machine, par, run_policy, w2_trace, write_cdf, write_cdf_chart, write_summary_row,
    PAPER_CORES,
};

/// A fan job producing one run's records. The lifetime lets jobs borrow
/// a shared spec vector instead of cloning the trace per policy run.
type RecJob<'a> = Box<dyn FnOnce() -> Vec<TaskRecord> + Send + 'a>;

/// Fans one job per independent simulation, returning records in input
/// order.
fn fan_records(jobs: Vec<RecJob<'_>>) -> Vec<Vec<TaskRecord>> {
    par::run_all(jobs)
}

/// §I motivating example: 1 ms of CPU + 60 s of database wait billed as a
/// full minute.
pub(crate) fn intro(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let spec = TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(1), 1_024)
        .with_io_wait(SimDuration::from_secs(60));
    let (_, records) = run_policy(MachineConfig::new(1), vec![spec], Fifo::new());
    let r = records[0];
    let model = PriceModel::duration_only();
    let billed = model.cost_of(&r);
    let cpu_only = model.cost_of_duration(r.cpu_time, r.mem_mib);
    writeln!(
        ctx.out,
        "# SI example | 1 ms CPU + 60 s database wait at 1 GiB"
    )?;
    writeln!(ctx.out, "cpu_time            = {}", r.cpu_time)?;
    writeln!(ctx.out, "billed duration     = {}", r.execution_time())?;
    writeln!(ctx.out, "billed cost         = ${billed:.7}")?;
    writeln!(ctx.out, "cpu-only cost       = ${cpu_only:.9}")?;
    writeln!(
        ctx.out,
        "# waiting multiplies the bill {:.0}x",
        billed / cpu_only
    )?;
    Ok(())
}

/// Fig. 1: cost of FIFO vs CFS by function memory size (Obs. 5).
pub(crate) fn fig01(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    writeln!(
        ctx.out,
        "# Fig. 1 | workload=W2 ({} invocations)",
        trace.len()
    )?;
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| run_policy(paper_machine(), &specs, Fifo::new()).1),
        Box::new(|| run_policy(paper_machine(), &specs, Cfs::with_cores(50)).1),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (fifo, cfs) = (results.next().unwrap(), results.next().unwrap());
    let model = PriceModel::duration_only();
    writeln!(ctx.out, "mem_mib\tfifo_usd\tcfs_usd\tratio")?;
    let fifo_sweep = model.memory_sweep(&fifo);
    let cfs_sweep = model.memory_sweep(&cfs);
    for ((mem, f), (_, c)) in fifo_sweep.iter().zip(&cfs_sweep) {
        writeln!(ctx.out, "{mem}\t{f:.4}\t{c:.4}\t{:.1}x", cost_ratio(*c, *f))?;
    }
    write_summary_row(ctx.out, "fifo", &fifo, model.workload_cost(&fifo))?;
    write_summary_row(ctx.out, "cfs", &cfs, model.workload_cost(&cfs))?;
    let ratio = cost_ratio(model.workload_cost(&cfs), model.workload_cost(&fifo));
    writeln!(
        ctx.out,
        "# overall CFS/FIFO cost ratio = {ratio:.1}x (paper: >10x)"
    )?;
    Ok(())
}

/// Fig. 2: the duration CDF and the bursty per-minute arrival pattern.
pub(crate) fn fig02(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    writeln!(ctx.out, "# Fig. 2 (left) | duration CDF")?;
    writeln!(ctx.out, "duration_s\tcumulative")?;
    for (d, p) in DurationDistribution::azure_like().cdf_points() {
        writeln!(ctx.out, "{:.3}\t{p:.3}", d.as_secs_f64())?;
    }
    writeln!(
        ctx.out,
        "# Fig. 2 (right) | per-minute arrivals (60 synthetic minutes)"
    )?;
    let mut rng = SimRng::seed_from(0xDA7);
    let counts = per_minute_counts(60, 60 * 6_221, &ArrivalConfig::default(), &mut rng);
    writeln!(ctx.out, "minute\tinvocations")?;
    for (m, c) in counts.iter().enumerate() {
        writeln!(ctx.out, "{m}\t{c}")?;
    }
    writeln!(
        ctx.out,
        "# burstiness (coefficient of variation) = {:.2}",
        burstiness_cv(&counts)
    )?;
    Ok(())
}

/// Fig. 4: execution/response/turnaround CDFs, FIFO vs CFS (Obs. 2).
pub(crate) fn fig04(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| run_policy(paper_machine(), &specs, Fifo::new()).1),
        Box::new(|| run_policy(paper_machine(), &specs, Cfs::with_cores(50)).1),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (fifo, cfs) = (results.next().unwrap(), results.next().unwrap());
    for metric in Metric::ALL {
        write_cdf(ctx.out, "Fig. 4", "fifo", metric, &fifo)?;
        write_cdf(ctx.out, "Fig. 4", "cfs", metric, &cfs)?;
    }
    Ok(())
}

/// Fig. 5: FIFO vs FIFO with a 100 ms preemption limit (Obs. 3).
pub(crate) fn fig05(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| run_policy(paper_machine(), &specs, Fifo::new()).1),
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                Fifo::with_limit(SimDuration::from_millis(100)),
            )
            .1
        }),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (fifo, limited) = (results.next().unwrap(), results.next().unwrap());
    for metric in Metric::ALL {
        write_cdf(ctx.out, "Fig. 5", "fifo", metric, &fifo)?;
        write_cdf(ctx.out, "Fig. 5", "fifo_100ms", metric, &limited)?;
    }
    Ok(())
}

/// Fig. 6: FIFO vs the hybrid FIFO+CFS 25/25 split (Obs. 4).
pub(crate) fn fig06(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| run_policy(paper_machine(), &specs, Fifo::new()).1),
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .1
        }),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (fifo, hybrid) = (results.next().unwrap(), results.next().unwrap());
    for metric in Metric::ALL {
        write_cdf(ctx.out, "Fig. 6", "fifo", metric, &fifo)?;
        write_cdf(ctx.out, "Fig. 6", "fifo+cfs", metric, &hybrid)?;
    }
    Ok(())
}

/// Fig. 10: a much longer trace vs the 2-minute sample, quantified with
/// the two-sample Kolmogorov-Smirnov statistic.
pub(crate) fn fig10(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    fn durations_of(trace: &AzureTrace) -> Vec<f64> {
        trace
            .invocations()
            .iter()
            .map(|i| i.duration.as_secs_f64())
            .collect()
    }
    // "Two weeks" at full Azure scale is out of reach; what matters is
    // sample-size asymmetry, so compare a 100x-larger long trace. The two
    // syntheses are independent; the long one also shards internally.
    let jobs: Vec<Box<dyn FnOnce() -> AzureTrace + Send>> = vec![
        Box::new(|| {
            AzureTrace::generate_sharded(
                &TraceConfig {
                    minutes: 200,
                    total_invocations: 1_244_200 / 4,
                    ..TraceConfig::w2()
                },
                par::bench_threads(),
            )
        }),
        Box::new(|| AzureTrace::generate(&TraceConfig::w2())),
    ];
    let mut traces = par::run_all(jobs).into_iter();
    let (long, sample) = (traces.next().unwrap(), traces.next().unwrap());
    let a = EmpiricalCdf::from_samples(durations_of(&long));
    let b = EmpiricalCdf::from_samples(durations_of(&sample));
    writeln!(
        ctx.out,
        "# Fig. 10 | duration CDFs, long trace vs 2-minute sample"
    )?;
    writeln!(ctx.out, "percentile\tlong_s\tsample_s")?;
    for p in [0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 0.99, 1.0] {
        writeln!(
            ctx.out,
            "{p:.2}\t{:.3}\t{:.3}",
            a.percentile(p),
            b.percentile(p)
        )?;
    }
    let ks = ks_statistic(&a, &b);
    writeln!(
        ctx.out,
        "# KS statistic = {ks:.4} (curves overlap when close to 0)"
    )?;
    Ok(())
}

/// Fig. 11: execution-time CDF across FIFO/CFS core splits vs plain CFS.
pub(crate) fn fig11(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    type Job<'a> = Box<dyn FnOnce() -> (String, Vec<TaskRecord>) + Send + 'a>;
    let trace = w2_trace();
    writeln!(
        ctx.out,
        "# Fig. 11 | execution-time CDF per core split (FIFO/CFS)"
    )?;
    let specs = trace.to_task_specs();
    let specs = &specs;
    let splits = [(10, 40), (20, 30), (25, 25), (30, 20), (40, 10)];
    let mut jobs: Vec<Job> = splits
        .iter()
        .map(|&(fifo, cfs)| {
            Box::new(move || {
                let cfg = HybridConfig::split(fifo, cfs);
                let (_, records) = run_policy(paper_machine(), specs, HybridScheduler::new(cfg));
                (format!("hybrid({fifo},{cfs})"), records)
            }) as Job
        })
        .collect();
    jobs.push(Box::new(move || {
        let (_, records) = run_policy(paper_machine(), specs, Cfs::with_cores(50));
        ("cfs(50)".to_string(), records)
    }));
    let mut means = Vec::new();
    for (label, records) in par::run_all(jobs) {
        write_cdf(ctx.out, "Fig. 11", &label, Metric::Execution, &records)?;
        means.push((label, MetricSummary::compute(&records, Metric::Execution)));
    }
    writeln!(ctx.out, "# split\tmean_exec_s\tp99_exec_s")?;
    for (label, s) in means {
        writeln!(
            ctx.out,
            "{label}\t{:.3}\t{:.3}",
            s.mean.as_secs_f64(),
            s.p99.as_secs_f64()
        )?;
    }
    Ok(())
}

/// Fig. 12: hybrid(25/25) vs CFS on all three metrics.
pub(crate) fn fig12(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .1
        }),
        Box::new(|| run_policy(paper_machine(), &specs, Cfs::with_cores(50)).1),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (hybrid, cfs) = (results.next().unwrap(), results.next().unwrap());
    for metric in Metric::ALL {
        write_cdf(ctx.out, "Fig. 12", "fifo+cfs(25,25)", metric, &hybrid)?;
        write_cdf(ctx.out, "Fig. 12", "cfs(50)", metric, &cfs)?;
    }
    for metric in Metric::ALL {
        write_cdf_chart(
            ctx.out,
            "Fig. 12",
            metric,
            &[("fifo+cfs(25,25)", &hybrid), ("cfs(50)", &cfs)],
        )?;
    }
    Ok(())
}

/// Fig. 13: preemption count per core, hybrid(25/25) vs CFS(50).
pub(crate) fn fig13(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<Box<dyn FnOnce() -> SlimReport + Send + '_>> = vec![
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .0
        }),
        Box::new(|| run_policy(paper_machine(), &specs, Cfs::with_cores(50)).0),
    ];
    let mut reports = par::run_all(jobs).into_iter();
    let (hyb_report, cfs_report) = (reports.next().unwrap(), reports.next().unwrap());
    writeln!(
        ctx.out,
        "# Fig. 13 | per-core preemption counts (cores 0-24 = FIFO group)"
    )?;
    writeln!(ctx.out, "core\thybrid\tcfs")?;
    for i in 0..50 {
        writeln!(
            ctx.out,
            "{i}\t{}\t{}",
            hyb_report.core_stats[i].preemptions, cfs_report.core_stats[i].preemptions
        )?;
    }
    let fifo_group: u64 = hyb_report.core_stats[..25]
        .iter()
        .map(|s| s.preemptions)
        .sum();
    let cfs_group: u64 = hyb_report.core_stats[25..]
        .iter()
        .map(|s| s.preemptions)
        .sum();
    writeln!(
        ctx.out,
        "# hybrid FIFO-group total={fifo_group} CFS-group total={cfs_group}"
    )?;
    Ok(())
}

/// Fig. 15: execution time under adaptive limits at p25..p95.
pub(crate) fn fig15(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    writeln!(
        ctx.out,
        "# Fig. 15 | execution time vs FIFO limit percentile (ts = pN)"
    )?;
    let specs = trace.to_task_specs();
    let cases: Vec<f64> = vec![0.25, 0.50, 0.75, 0.90, 0.95];
    let results = par::par_map(cases, |_, pct| {
        let cfg = HybridConfig::paper_25_25().with_time_limit(TimeLimitPolicy::Adaptive {
            percentile: pct,
            initial: SimDuration::from_millis(1_633),
        });
        let (_, records) = run_policy(paper_machine(), &specs, HybridScheduler::new(cfg));
        (format!("ts=p{:.0}", pct * 100.0), records)
    });
    let mut rows = Vec::new();
    for (label, records) in results {
        write_cdf(ctx.out, "Fig. 15", &label, Metric::Execution, &records)?;
        rows.push((label, MetricSummary::compute(&records, Metric::Execution)));
    }
    writeln!(ctx.out, "# limit\tmean_exec_s\tp99_exec_s")?;
    for (label, s) in rows {
        writeln!(
            ctx.out,
            "{label}\t{:.3}\t{:.3}",
            s.mean.as_secs_f64(),
            s.p99.as_secs_f64()
        )?;
    }
    Ok(())
}

/// Fig. 18: fixed 25/25 groups vs dynamically rightsized groups.
pub(crate) fn fig18(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .1
        }),
        Box::new(|| {
            let rcfg = HybridConfig::paper_25_25().with_rightsizing(RightsizingConfig::default());
            run_policy(paper_machine(), &specs, HybridScheduler::new(rcfg)).1
        }),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (fixed, rightsized) = (results.next().unwrap(), results.next().unwrap());
    for metric in Metric::ALL {
        write_cdf(ctx.out, "Fig. 18", "fixed(25,25)", metric, &fixed)?;
        write_cdf(ctx.out, "Fig. 18", "rightsized", metric, &rightsized)?;
    }
    Ok(())
}

/// Fig. 20: cost by memory size for hybrid, FIFO and CFS.
pub(crate) fn fig20(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let specs = trace.to_task_specs();
    let jobs: Vec<RecJob> = vec![
        Box::new(|| {
            run_policy(
                paper_machine(),
                &specs,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .1
        }),
        Box::new(|| run_policy(paper_machine(), &specs, Fifo::new()).1),
        Box::new(|| run_policy(paper_machine(), &specs, Cfs::with_cores(50)).1),
    ];
    let mut results = fan_records(jobs).into_iter();
    let (hybrid, fifo, cfs) = (
        results.next().unwrap(),
        results.next().unwrap(),
        results.next().unwrap(),
    );
    let model = PriceModel::duration_only();
    writeln!(ctx.out, "# Fig. 20 | cost by memory size")?;
    writeln!(ctx.out, "mem_mib\thybrid_usd\tfifo_usd\tcfs_usd")?;
    let h = model.memory_sweep(&hybrid);
    let f = model.memory_sweep(&fifo);
    let c = model.memory_sweep(&cfs);
    for i in 0..h.len() {
        writeln!(
            ctx.out,
            "{}\t{:.4}\t{:.4}\t{:.4}",
            h[i].0, h[i].1, f[i].1, c[i].1
        )?;
    }
    Ok(())
}

/// Fig. 23: cost vs p99 response time for the whole scheduler zoo.
pub(crate) fn fig23(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    writeln!(ctx.out, "# Fig. 23 | scheduler\tcost_usd\tp99_response_s")?;
    // One trace build; every scheduler run borrows the same spec vector.
    let specs = trace.to_task_specs();
    let s = &specs;
    // Shinjuku's hardware-assisted preemption: same policy, cheaper
    // context switches (5x lower restore penalty).
    let shinjuku_machine = paper_machine().with_cost(CostModel::from_micros(1, 40));
    type Job<'a> = Box<dyn FnOnce() -> Vec<TaskRecord> + Send + 'a>;
    let mut jobs: Vec<(&str, Job)> = Vec::new();
    jobs.push((
        "hybrid",
        Box::new(move || {
            run_policy(
                paper_machine(),
                s,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .1
        }),
    ));
    jobs.push((
        "fifo",
        Box::new(move || run_policy(paper_machine(), s, Fifo::new()).1),
    ));
    jobs.push((
        "cfs",
        Box::new(move || run_policy(paper_machine(), s, Cfs::with_cores(PAPER_CORES)).1),
    ));
    jobs.push((
        "fifo_100ms",
        Box::new(move || {
            run_policy(
                paper_machine(),
                s,
                Fifo::with_limit(SimDuration::from_millis(100)),
            )
            .1
        }),
    ));
    jobs.push((
        "round_robin",
        Box::new(move || {
            run_policy(
                paper_machine(),
                s,
                Fifo::round_robin(SimDuration::from_millis(10)),
            )
            .1
        }),
    ));
    jobs.push((
        "edf",
        Box::new(move || run_policy(paper_machine(), s, Edf::new()).1),
    ));
    jobs.push((
        "shinjuku",
        Box::new(move || {
            run_policy(
                shinjuku_machine,
                s,
                Fifo::shinjuku(SimDuration::from_millis(1)),
            )
            .1
        }),
    ));
    jobs.push((
        "sfs",
        Box::new(move || run_policy(paper_machine(), s, Sfs::new(SimDuration::from_millis(50))).1),
    ));
    jobs.push((
        "mlfq",
        Box::new(move || run_policy(paper_machine(), s, Mlfq::new(MlfqParams::default())).1),
    ));
    let (names, runs): (Vec<&str>, Vec<Job>) = jobs.into_iter().unzip();
    for (name, records) in names.into_iter().zip(par::run_all(runs)) {
        let cost = PriceModel::duration_only().workload_cost(&records);
        let p99 = MetricSummary::compute(&records, Metric::Response).p99;
        writeln!(ctx.out, "{name}\t{cost:.4}\t{:.2}", p99.as_secs_f64())?;
    }
    Ok(())
}
