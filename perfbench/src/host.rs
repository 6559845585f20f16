//! The host record every result carries, and the process's peak memory.

use std::fmt;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may run on.
    pub nproc: usize,
    /// CPU model name, from `/proc/cpuinfo`.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// Fan width of every `par` call.
    pub width: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Host {
    /// Describes this host for a run at `width` with `seed`.
    pub fn detect(nproc: usize, width: usize, seed: u64) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, name)| name.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc,
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            width,
            seed,
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" fan_width={} seed={}",
            self.nproc, self.cpu, self.rustc, self.width, self.seed
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}
