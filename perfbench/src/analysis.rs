//! Per-layer metrics of one traced run: layer self times from the span
//! tree, counters from the simulated outputs.

use crate::outputs::{Outputs, Policy};
use crate::spans::{Layer, Span, FAN_SPAN, JOB_SPAN};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-metric medians over runs that each report the same metric list.
pub fn medians(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Each span's self time: its duration minus the part of its interval its
/// children cover. A fan's jobs run in parallel, so the union of the child
/// intervals is subtracted, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Every per-layer metric of one traced run (`BENCHMARK.json`'s
/// `per_layer` list, minus `tracing.overhead_ratio`, which needs the
/// untraced runs too).
pub fn per_layer(spans: &[Span], out: &Outputs, width: usize) -> Vec<Metric> {
    let own = self_times(spans);
    let machines = out.machines.len();

    // Fans and their jobs. The kernel time each machine spends inside one
    // fan gives that fan's critical path (its slowest machine).
    let mut fan_ordinal = vec![None; spans.len()];
    let (mut fans, mut fan_wall, mut job_time) = (0, 0, 0);
    for (i, s) in spans.iter().enumerate() {
        if s.name == FAN_SPAN {
            fan_ordinal[i] = Some(fans);
            fans += 1;
            fan_wall += s.duration_ns();
        } else if s.name == JOB_SPAN {
            job_time += s.duration_ns();
        }
    }
    let mut busy = [0u64; Layer::ALL.len()];
    let mut kernel_of = vec![0u64; machines];
    let mut per_fan = vec![vec![0u64; machines]; fans];
    for (i, s) in spans.iter().enumerate() {
        busy[s.layer.index()] += own[i];
        let (Layer::Kernel, Some(m)) = (s.layer, s.machine) else {
            continue;
        };
        kernel_of[m as usize] += own[i];
        if let Some(f) = enclosing_fan(spans, i, &fan_ordinal) {
            per_fan[f][m as usize] += own[i];
        }
    }
    let critical: u64 = per_fan
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .sum();
    let kernel_max = kernel_of.iter().copied().max().unwrap_or(0);
    let kernel_mean = kernel_of.iter().sum::<u64>() as f64 / machines.max(1) as f64;

    let layer = |l: Layer| busy[l.index()];
    let events: u64 = out.machines.iter().map(|m| m.events).sum();
    let mut v = vec![
        Metric::new("trace.busy_s", secs(layer(Layer::Trace)), "s"),
        Metric::new(
            "trace.ns_per_invocation",
            ratio(layer(Layer::Trace) as f64, out.synthesized as f64),
            "ns",
        ),
        Metric::new("frontend.busy_s", secs(layer(Layer::Frontend)), "s"),
        Metric::new(
            "frontend.ns_per_invocation",
            if out.front.is_some() {
                ratio(layer(Layer::Frontend) as f64, out.arrived as f64)
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new("kernel.busy_s", secs(layer(Layer::Kernel)), "s"),
        Metric::new("kernel.events", events as f64, "count"),
        Metric::new(
            "kernel.ns_per_event",
            ratio(layer(Layer::Kernel) as f64, events as f64),
            "ns",
        ),
        Metric::new("kernel.critical_path_s", secs(critical), "s"),
        Metric::new(
            "kernel.busy_skew",
            ratio(kernel_max as f64, kernel_mean),
            "ratio",
        ),
        Metric::new("kernel.cancelled", out.cancelled() as f64, "count"),
        Metric::new(
            "kernel.max_in_flight",
            out.machines
                .iter()
                .map(|m| m.max_in_flight)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
    ];
    for policy in Policy::ALL {
        let on: Vec<usize> = (0..machines)
            .filter(|&i| out.machines[i].policy == policy)
            .collect();
        let busy_ns: u64 = on.iter().map(|&i| kernel_of[i]).sum();
        let events: u64 = on.iter().map(|&i| out.machines[i].events).sum();
        let preemptions: u64 = on.iter().map(|&i| out.machines[i].preemptions).sum();
        // Folded from +0.0: an empty `f64` sum is -0.0.
        let cost = on
            .iter()
            .map(|&i| f64::from_bits(out.machines[i].cost_bits))
            .fold(0.0, |sum, c| sum + c);
        let name = |metric: &str| format!("kernel.{}.{metric}", policy.label());
        v.push(Metric::new(name("busy_s"), secs(busy_ns), "s"));
        v.push(Metric::new(name("events"), events as f64, "count"));
        v.push(Metric::new(
            name("ns_per_event"),
            ratio(busy_ns as f64, events as f64),
            "ns",
        ));
        v.push(Metric::new(
            name("preemptions"),
            preemptions as f64,
            "count",
        ));
        v.push(Metric::new(name("sim_cost_usd"), cost, "USD"));
    }
    v.push(Metric::new("fan.wall_s", secs(fan_wall), "s"));
    v.push(Metric::new(
        "fan.efficiency",
        ratio(job_time as f64, fan_wall as f64 * width as f64),
        "ratio",
    ));
    v.extend(front_end(out));
    v.push(Metric::new(
        "metrics.busy_s",
        secs(layer(Layer::Metrics)),
        "s",
    ));
    v.push(Metric::new(
        "metrics.sketch_tuples",
        out.sketch_tuples as f64,
        "count",
    ));
    v.push(Metric::new(
        "pricing.busy_s",
        secs(layer(Layer::Pricing)),
        "s",
    ));
    v
}

/// Ordinal of the nearest fan enclosing span `i`.
fn enclosing_fan(spans: &[Span], mut i: usize, fan_ordinal: &[Option<usize>]) -> Option<usize> {
    while let Some(p) = spans[i].parent {
        i = p as usize;
        if let Some(f) = fan_ordinal[i] {
            return Some(f);
        }
    }
    None
}

/// Front-end counters; all zero for a workload without a front end.
fn front_end(out: &Outputs) -> Vec<Metric> {
    let mut values = [0.0; 11];
    if let Some(f) = &out.front {
        let fed: Vec<u64> = out
            .machines
            .iter()
            .map(|m| m.fed.unwrap_or(m.completed + m.cancelled))
            .collect();
        let dispatches: u64 = fed.iter().sum();
        let max_fed = fed.iter().copied().max().unwrap_or(0);
        let attempts = dispatches + f.chaos.retries + f.chaos.abandoned;
        values = [
            fed.iter().filter(|&&n| n > 0).count() as f64,
            ratio(max_fed as f64, dispatches as f64 / fed.len().max(1) as f64),
            dispatches as f64,
            f.overload.total_shed() as f64,
            f.chaos.retries as f64,
            f.chaos.abandoned as f64,
            f.health.hedges as f64,
            f.health.ejections as f64,
            f.cold_starts as f64,
            out.unaccounted() as f64,
            ratio(out.completed() as f64, attempts as f64),
        ];
    }
    const NAMES: [(&str, &str); 11] = [
        ("frontend.machines_used", "count"),
        ("frontend.dispatch_skew", "ratio"),
        ("frontend.dispatches", "count"),
        ("frontend.shed", "count"),
        ("frontend.retries", "count"),
        ("frontend.abandoned", "count"),
        ("frontend.hedges", "count"),
        ("frontend.ejections", "count"),
        ("frontend.cold_starts", "count"),
        ("frontend.unaccounted", "count"),
        ("frontend.useful_ratio", "ratio"),
    ];
    NAMES
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            run: 0,
            parent,
            layer: Layer::Kernel,
            name: "call",
            machine: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two parallel children cover [10, 60) and [40, 90): a union of 80
        // inside the parent's 100, though their durations sum to 100.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 50]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span(None, 10, 20), span(Some(0), 0, 15)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
