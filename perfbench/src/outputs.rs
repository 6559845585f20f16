//! The simulated outputs of one workload run, in a form that compares bit
//! for bit across repeats and between the untraced and the traced run.

use faas_kernel::SlimReport;
use faas_metrics::{ChaosStats, HealthStats, MachineHealth, OverloadStats, RunSummary};

/// A per-machine scheduler agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `faas_policies::Fifo`.
    Fifo,
    /// `faas_policies::Cfs`.
    Cfs,
    /// `hybrid_scheduler::HybridScheduler` (25 FIFO + 25 CFS cores).
    Hybrid,
}

impl Policy {
    /// Every policy, in Table I order.
    pub const ALL: [Policy; 3] = [Policy::Fifo, Policy::Cfs, Policy::Hybrid];

    /// The name used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Cfs => "cfs",
            Policy::Hybrid => "hybrid",
        }
    }
}

/// One machine's share of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineOut {
    /// The machine's scheduler agent.
    pub policy: Policy,
    /// Specs fed to the kernel; `None` where the run path does not expose
    /// it (the library's streaming report counts completions only).
    pub fed: Option<u64>,
    /// Invocations completed (and billed).
    pub completed: u64,
    /// Invocations the kernel cancelled past their deadline.
    pub cancelled: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Preemptions over all cores.
    pub preemptions: u64,
    /// Simulated instant the machine went idle for good (µs).
    pub finished_at_us: u64,
    /// Peak arrived-but-unfinished tasks.
    pub max_in_flight: u64,
    /// Peak task records held at once (streaming runs; 0 otherwise).
    pub max_live: u64,
    /// Duration-only bill of the completed invocations, as `f64` bits.
    pub cost_bits: u64,
}

impl MachineOut {
    /// The counters of a materialized machine run.
    pub fn of_slim(policy: Policy, slim: &SlimReport, completed: usize, cost_usd: f64) -> Self {
        MachineOut {
            policy,
            fed: Some(slim.tasks.len() as u64),
            completed: completed as u64,
            cancelled: slim.cancelled,
            events: slim.events_processed,
            preemptions: slim.total_preemptions(),
            finished_at_us: slim.finished_at.as_micros(),
            max_in_flight: slim.max_in_flight,
            max_live: 0,
            cost_bits: cost_usd.to_bits(),
        }
    }
}

/// The front end's ledgers (cluster workloads only).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontOut {
    /// Dispatches that paid a cold boot.
    pub cold_starts: u64,
    /// Shed counts by cause, breaker trips, kernel cancellations.
    pub overload: OverloadStats,
    /// Crashes, retries, abandonments, straggled tasks.
    pub chaos: ChaosStats,
    /// Ejections, probes, hedges, backoff.
    pub health: HealthStats,
    /// Per-machine health columns.
    pub machine_health: Vec<MachineHealth>,
}

/// Quantiles (µs) of the workload's subject run over its completed
/// invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Completed invocations summarized.
    pub count: u64,
    /// Arrival to completion, median.
    pub turnaround_p50_us: u64,
    /// Arrival to completion, 99th percentile.
    pub turnaround_p99_us: u64,
    /// Arrival to first run, median.
    pub response_p50_us: u64,
    /// Arrival to first run, 99th percentile.
    pub response_p99_us: u64,
    /// First run to completion, 99th percentile.
    pub execution_p99_us: u64,
}

impl Quantiles {
    /// The quantiles of a summary.
    pub fn of(s: &RunSummary) -> Self {
        Quantiles {
            count: s.turnaround.count as u64,
            turnaround_p50_us: s.turnaround.p50.as_micros(),
            turnaround_p99_us: s.turnaround.p99.as_micros(),
            response_p50_us: s.response.p50.as_micros(),
            response_p99_us: s.response.p99.as_micros(),
            execution_p99_us: s.execution.p99.as_micros(),
        }
    }
}

/// Everything one run simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Invocations the trace synthesized.
    pub synthesized: u64,
    /// Invocations simulated, summed over the workload's runs: the
    /// benchmark's operations.
    pub arrived: u64,
    /// Per-machine counters, in machine order.
    pub machines: Vec<MachineOut>,
    /// Front-end ledgers; `None` without a front end.
    pub front: Option<FrontOut>,
    /// Quantiles of the subject run.
    pub subject: Quantiles,
    /// Duration-only bill of the subject run, as `f64` bits.
    pub cost_bits: u64,
    /// Summary tuples the per-machine quantile sketches hold (streaming
    /// runs; 0 otherwise).
    pub sketch_tuples: u64,
}

impl Outputs {
    /// Invocations completed over all machines.
    pub fn completed(&self) -> u64 {
        self.machines.iter().map(|m| m.completed).sum()
    }

    /// Invocations cancelled by kernels over all machines.
    pub fn cancelled(&self) -> u64 {
        self.machines.iter().map(|m| m.cancelled).sum()
    }

    /// The subject run's bill in USD.
    pub fn cost_usd(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }

    /// The front-end ledger residual: arrived plus hedges, minus completed,
    /// shed, abandoned and kernel-cancelled. The exported ledgers cannot
    /// close when a hedge copy dies in a crash, so this is reported, not
    /// checked.
    pub fn unaccounted(&self) -> i64 {
        let Some(f) = &self.front else { return 0 };
        let inflow = self.arrived + f.health.hedges;
        let outflow =
            self.completed() + f.overload.total_shed() + f.chaos.abandoned + self.cancelled();
        inflow as i64 - outflow as i64
    }

    /// Specs a kernel was fed but neither completed nor cancelled.
    pub fn stranded(&self) -> u64 {
        self.machines
            .iter()
            .filter_map(|m| {
                m.fed
                    .map(|fed| fed.saturating_sub(m.completed + m.cancelled))
            })
            .sum()
    }

    /// On every machine whose feed is known, the specs fed equal the
    /// invocations completed plus those the kernel cancelled.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (i, m) in self.machines.iter().enumerate() {
            if let Some(fed) = m.fed {
                if fed != m.completed + m.cancelled {
                    return Err(format!(
                        "machine {i} was fed {fed} specs but completed {} and cancelled {}",
                        m.completed, m.cancelled
                    ));
                }
            }
        }
        Ok(())
    }

    /// The first difference from `other`, comparing a machine's `fed` only
    /// where both sides know it.
    pub fn diff(&self, other: &Outputs) -> Option<String> {
        if (self.synthesized, self.arrived) != (other.synthesized, other.arrived) {
            return Some(format!(
                "arrivals {}/{} vs {}/{}",
                self.synthesized, self.arrived, other.synthesized, other.arrived
            ));
        }
        if self.machines.len() != other.machines.len() {
            return Some(format!(
                "{} machines vs {}",
                self.machines.len(),
                other.machines.len()
            ));
        }
        for (i, (a, b)) in self.machines.iter().zip(&other.machines).enumerate() {
            let (a_cmp, b_cmp) = if a.fed.is_some() && b.fed.is_some() {
                (*a, *b)
            } else {
                (
                    MachineOut { fed: None, ..*a },
                    MachineOut { fed: None, ..*b },
                )
            };
            if a_cmp != b_cmp {
                return Some(format!("machine {i}: {a:?} vs {b:?}"));
            }
        }
        if self.front != other.front {
            return Some(match (&self.front, &other.front) {
                (Some(a), Some(b)) if a.machine_health != b.machine_health => {
                    "per-machine health columns differ".to_owned()
                }
                (Some(a), Some(b)) => format!(
                    "front end: {} {:?} {:?} {:?} vs {} {:?} {:?} {:?}",
                    a.cold_starts,
                    a.overload,
                    a.chaos,
                    a.health,
                    b.cold_starts,
                    b.overload,
                    b.chaos,
                    b.health
                ),
                _ => "front end present on one side only".to_owned(),
            });
        }
        if self.subject != other.subject {
            return Some(format!(
                "quantiles {:?} vs {:?}",
                self.subject, other.subject
            ));
        }
        if self.cost_bits != other.cost_bits {
            return Some(format!("cost {} vs {}", self.cost_usd(), other.cost_usd()));
        }
        if self.sketch_tuples != other.sketch_tuples {
            return Some(format!(
                "sketch tuples {} vs {}",
                self.sketch_tuples, other.sketch_tuples
            ));
        }
        None
    }
}
