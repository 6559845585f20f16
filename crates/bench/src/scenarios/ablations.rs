//! Ablation scenarios (DESIGN.md): the cost-model sweep and the
//! design-choice matrix.

use faas_kernel::{CostModel, MachineConfig};
use faas_metrics::{Metric, MetricSummary, RunSummary};
use faas_simcore::SimDuration;
use hybrid_scheduler::{
    CfsPlacement, HybridConfig, HybridScheduler, RightsizingConfig, TimeLimitPolicy,
};
use lambda_pricing::{cost_ratio, PriceModel};
use microvm_sim::{run_fleet, BootKind, FirecrackerConfig};

use crate::scenario::{ScenarioCtx, ScenarioResult};
use crate::{paper_machine, par, run_policy, w2_trace, wfc_trace, PAPER_CORES};

use faas_policies::{Cfs, Fifo};

/// Ablation: what actually drives the CFS cost blow-up — direct
/// context-switch cost, cache-restore penalty, or the purely structural
/// effect of time-slicing (wall-clock stretching)?
///
/// All ten runs (five cost models x FIFO/CFS) are independent
/// simulations, fanned over `BENCH_THREADS` at once; rows print in model
/// order.
pub(crate) fn ablation_cost(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let model = PriceModel::duration_only();
    writeln!(
        ctx.out,
        "# Ablation | context-switch cost model vs CFS/FIFO cost ratio"
    )?;
    writeln!(ctx.out, "cost_model\tfifo_usd\tcfs_usd\tratio")?;
    let variants = [
        ("free (structural only)", CostModel::free()),
        ("switch only (5us)", CostModel::from_micros(5, 0)),
        ("penalty only (200us)", CostModel::from_micros(0, 200)),
        ("paper default (5us+200us)", CostModel::default()),
        ("heavy (20us+1000us)", CostModel::from_micros(20, 1_000)),
    ];
    type Job<'a> = Box<dyn FnOnce() -> f64 + Send + 'a>;
    let specs = trace.to_task_specs();
    let specs = &specs;
    let mut jobs: Vec<Job> = Vec::with_capacity(2 * variants.len());
    for (_, cost) in variants {
        jobs.push(Box::new(move || {
            let machine = MachineConfig::new(PAPER_CORES).with_cost(cost);
            let (_, fifo) = run_policy(machine, specs, Fifo::new());
            model.workload_cost(&fifo)
        }));
        jobs.push(Box::new(move || {
            let machine = MachineConfig::new(PAPER_CORES).with_cost(cost);
            let (_, cfs) = run_policy(machine, specs, Cfs::with_cores(PAPER_CORES));
            model.workload_cost(&cfs)
        }));
    }
    let costs = par::run_all(jobs);
    for (i, (name, _)) in variants.iter().enumerate() {
        let (f, c) = (costs[2 * i], costs[2 * i + 1]);
        writeln!(ctx.out, "{name}\t{f:.4}\t{c:.4}\t{:.1}x", cost_ratio(c, f))?;
    }
    Ok(())
}

type Job<'a> = Box<dyn FnOnce() -> String + Send + 'a>;

/// The job list plus the `(header, column_row, start_index)` of each
/// section, recorded as jobs are pushed so the printed grouping can
/// never drift from the loops that build the cases.
struct Sections<'a> {
    jobs: Vec<Job<'a>>,
    sections: Vec<(&'static str, &'static str, usize)>,
}

impl<'a> Sections<'a> {
    fn start(&mut self, header: &'static str, columns: &'static str) {
        self.sections.push((header, columns, self.jobs.len()));
    }

    fn write(self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        let rows = par::run_all(self.jobs);
        for (i, &(header, columns, start)) in self.sections.iter().enumerate() {
            let end = self
                .sections
                .get(i + 1)
                .map(|&(_, _, s)| s)
                .unwrap_or(rows.len());
            writeln!(out, "{header}")?;
            writeln!(out, "{columns}")?;
            for row in &rows[start..end] {
                writeln!(out, "{row}")?;
            }
        }
        Ok(())
    }
}

/// Ablations of the hybrid scheduler's design choices (DESIGN.md):
///
/// 1. round-robin vs least-loaded placement of migrated tasks (§IV-A);
/// 2. sliding-window size for the adaptive limit (paper: 100);
/// 3. rightsizing trigger threshold;
/// 4. §VII-4 future work: routing microVM VMM/I-O threads directly to the
///    CFS group via placement hints;
/// 5. snapshot-restore boots (Ustiugov et al. \[22\]).
///
/// Every case across all five sections is an independent simulation, so
/// the whole matrix fans out over `BENCH_THREADS` workers at once; each
/// job returns its preformatted row, keeping stdout byte-identical at any
/// thread count.
pub(crate) fn ablation_design(ctx: &mut ScenarioCtx<'_>) -> ScenarioResult {
    let trace = w2_trace();
    let fleet_trace = wfc_trace();
    // One W2 spec build shared by sections 1-3 (the fleet sections build
    // their own per-VM thread specs from the plan).
    let specs = trace.to_task_specs();
    let specs = &specs;
    let mut all = Sections {
        jobs: Vec::new(),
        sections: Vec::new(),
    };

    // Section 1: CFS-side placement.
    all.start(
        "# Ablation 1 | CFS-side placement of migrated tasks",
        "placement\tmean_exec_s\tp99_exec_s\tcost_usd",
    );
    let jobs = &mut all.jobs;
    for (name, placement) in [
        ("round_robin(paper)", CfsPlacement::RoundRobin),
        ("least_loaded", CfsPlacement::LeastLoaded),
    ] {
        jobs.push(Box::new(move || {
            let cfg = HybridConfig::paper_25_25().with_cfs_placement(placement);
            let (_, records) = run_policy(paper_machine(), specs, HybridScheduler::new(cfg));
            let s = MetricSummary::compute(&records, Metric::Execution);
            format!(
                "{name}\t{:.3}\t{:.3}\t{:.4}",
                s.mean.as_secs_f64(),
                s.p99.as_secs_f64(),
                PriceModel::duration_only().workload_cost(&records)
            )
        }));
    }

    // Section 2: sliding-window size.
    all.start(
        "# Ablation 2 | sliding-window size (adaptive p95 limit)",
        "window\tmean_exec_s\tcost_usd",
    );
    let jobs = &mut all.jobs;
    for window_size in [25usize, 50, 100, 200, 400] {
        jobs.push(Box::new(move || {
            let cfg = HybridConfig {
                window_size,
                ..HybridConfig::paper_25_25().with_time_limit(TimeLimitPolicy::Adaptive {
                    percentile: 0.95,
                    initial: SimDuration::from_millis(1_633),
                })
            };
            let (_, records) = run_policy(paper_machine(), specs, HybridScheduler::new(cfg));
            let s = MetricSummary::compute(&records, Metric::Execution);
            format!(
                "{window_size}\t{:.3}\t{:.4}",
                s.mean.as_secs_f64(),
                PriceModel::duration_only().workload_cost(&records)
            )
        }));
    }

    // Section 3: rightsizing threshold.
    all.start(
        "# Ablation 3 | rightsizing threshold",
        "threshold\tp99_response_s\tp99_exec_s\tmigrations",
    );
    let jobs = &mut all.jobs;
    for threshold in [0.05, 0.15, 0.30, 0.60] {
        jobs.push(Box::new(move || {
            let cfg = HybridConfig::paper_25_25().with_rightsizing(RightsizingConfig {
                threshold,
                ..RightsizingConfig::default()
            });
            let mut sim =
                faas_kernel::Simulation::new(paper_machine(), specs, HybridScheduler::new(cfg));
            while sim.step().expect("simulation completes") {}
            let migrations = sim.policy().migrations().len();
            let records = faas_metrics::records_from_tasks(sim.machine().tasks());
            let s = RunSummary::compute(&records);
            format!(
                "{threshold}\t{:.2}\t{:.2}\t{migrations}",
                s.response.p99.as_secs_f64(),
                s.execution.p99.as_secs_f64()
            )
        }));
    }

    // Section 4: §VII-4 microVM aux threads routed by hint.
    all.start(
        "# Ablation 4 | \u{a7}VII-4: microVM aux threads routed by hint",
        "fleet_mode\tvm_p99_exec_s\tvm_p99_turnaround_s\tcost_usd\tbackground_routed",
    );
    let jobs = &mut all.jobs;
    for (name, fc, hints) in [
        ("uniform(paper)", FirecrackerConfig::paper_fleet(), false),
        (
            "aux_to_cfs(future-work)",
            FirecrackerConfig::paper_fleet_hinted(),
            true,
        ),
    ] {
        let ft = fleet_trace.clone();
        jobs.push(Box::new(move || {
            let mut cfg = HybridConfig::paper_25_25();
            if hints {
                cfg = cfg.with_hint_routing();
            }
            let out = run_fleet(&ft, &fc, PAPER_CORES, HybridScheduler::new(cfg))
                .expect("fleet completes");
            let s = RunSummary::compute(&out.vm_records);
            format!(
                "{name}\t{:.2}\t{:.2}\t{:.4}\t-",
                s.execution.p99.as_secs_f64(),
                s.turnaround.p99.as_secs_f64(),
                PriceModel::duration_only().workload_cost(&out.vm_records)
            )
        }));
    }

    // Section 5: snapshot-restore boots.
    all.start(
        "# Ablation 5 | snapshot-restore boots (Ustiugov et al. [22])",
        "boot\tfailed\tvm_p99_turnaround_s\tcost_usd",
    );
    let jobs = &mut all.jobs;
    for (name, boot_kind) in [
        ("full_boot", BootKind::Full),
        (
            "snapshot_80pct",
            BootKind::Snapshot {
                restore_cpu: SimDuration::from_millis(8),
                hit_rate: 0.8,
            },
        ),
    ] {
        let ft = fleet_trace.clone();
        jobs.push(Box::new(move || {
            let fc = FirecrackerConfig {
                boot_kind,
                ..FirecrackerConfig::paper_fleet()
            };
            let out = run_fleet(
                &ft,
                &fc,
                PAPER_CORES,
                HybridScheduler::new(HybridConfig::paper_25_25()),
            )
            .expect("fleet completes");
            let s = RunSummary::compute(&out.vm_records);
            format!(
                "{name}\t{}\t{:.2}\t{:.4}",
                out.plan.failed(),
                s.turnaround.p99.as_secs_f64(),
                PriceModel::duration_only().workload_cost(&out.vm_records)
            )
        }));
    }

    all.write(ctx.out)?;
    Ok(())
}
