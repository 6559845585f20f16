//! The three workloads. Each runs once through the library's own run path
//! (untraced) and once as the same sequence of public calls with a span
//! around each (traced); both must produce identical [`Outputs`].

mod control;
mod enclave;
mod fleet;

use faas_kernel::{InterferenceConfig, MachineConfig, SimError};

use crate::marks::Marks;
use crate::outputs::Outputs;
use crate::spans::Spans;

/// The default `--seed`, the W2 trace's own seed: under it every workload
/// reproduces the inputs of the scenarios it is drawn from.
pub const DEFAULT_SEED: u64 = 0xA2EE;

/// The paper's enclave size (§V-C).
const PAPER_CORES: usize = 50;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["enclave-w2", "fleet-xl-stream", "control-plane"];

/// What every workload takes from the command line.
///
/// Every workload replays its scenario's fixed trace, as the paper does;
/// the seed re-keys the rest of its inputs: the per-machine RNG streams
/// (host interference), the fault plan and the backoff jitter. Re-keying
/// the trace as well moved the simulated median turnaround by 30–100% from
/// seed to seed, because saturated machines amplify the trace's burst
/// pattern, and no bound on the simulated metrics could absorb that.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Fan width of every `par` call and trace shard count.
    pub width: usize,
}

impl Params {
    /// A scenario's seed constant re-keyed by the workload seed; `base`
    /// itself under [`DEFAULT_SEED`].
    fn seeded(&self, base: u64) -> u64 {
        base ^ self.seed ^ DEFAULT_SEED
    }

    /// The paper's machine (`faas-bench`'s `paper_machine`): 50 cores with
    /// host interference on, its RNG seed re-keyed.
    fn paper_machine(&self) -> MachineConfig {
        let machine = MachineConfig::new(PAPER_CORES);
        let seed = self.seeded(machine.seed);
        machine
            .with_interference(InterferenceConfig::default())
            .with_seed(seed)
    }
}

/// One benchmark workload.
pub trait Workload {
    /// One run through the library's own entry points. Its first mark is
    /// its first trace, dispatch or kernel call; every repeat passes the
    /// same marks after the same simulated work.
    fn run(&self, marks: &Marks) -> Result<Outputs, SimError>;

    /// The same run as a sequence of public calls, each inside a span.
    fn run_traced(&self, sp: &mut Spans) -> Result<Outputs, SimError>;

    /// Checks particular to the workload, beyond per-machine conservation.
    fn check(&self, out: &Outputs) -> Result<(), String>;
}

/// The workload called `name`.
pub fn build(name: &str, p: Params) -> Option<Box<dyn Workload>> {
    match name {
        "enclave-w2" => Some(Box::new(enclave::EnclaveW2 { p })),
        "fleet-xl-stream" => Some(Box::new(fleet::FleetXlStream { p })),
        "control-plane" => Some(Box::new(control::ControlPlane { p })),
        _ => None,
    }
}
