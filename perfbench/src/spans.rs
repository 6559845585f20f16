//! In-memory span recorder. The benchmark wraps each call it makes into a
//! layer's public functions in a span, keeps every span in memory while the
//! run is timed, and writes them out afterwards.

use std::io::{self, Write};
use std::time::Instant;

use faas_simcore::par;

/// Name of the span around one `par::par_map_with` fan.
pub const FAN_SPAN: &str = "par::par_map_with";
/// Name of the span around one job of a fan (one machine's work).
pub const JOB_SPAN: &str = "job";

/// The layer a span belongs to, named after the workspace crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `azure-trace`: trace synthesis.
    Trace,
    /// The `faas-cluster` `FrontEnd` fold: dispatch, middleware, chaos,
    /// health.
    Frontend,
    /// `faas-kernel`'s `MachineRun`, with the scheduler agent inside it.
    Kernel,
    /// `faas-simcore`'s `par` fan and each job's hand-off.
    Fan,
    /// `faas-metrics`: records, summaries and sketches.
    Metrics,
    /// `lambda-pricing`: billing.
    Pricing,
}

impl Layer {
    /// Every layer, in [`Layer::index`] order.
    pub const ALL: [Layer; 6] = [
        Layer::Trace,
        Layer::Frontend,
        Layer::Kernel,
        Layer::Fan,
        Layer::Metrics,
        Layer::Pricing,
    ];

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name used in metric names and the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Frontend => "frontend",
            Layer::Kernel => "kernel",
            Layer::Fan => "fan",
            Layer::Metrics => "metrics",
            Layer::Pricing => "pricing",
        }
    }
}

/// One timed call. Times are nanoseconds since the run's [`Clock`] origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// The traced run (repeat) the span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer of the called function.
    pub layer: Layer,
    /// The public function called, e.g. `FrontEnd::dispatch_chunk`.
    pub name: &'static str,
    /// The machine a per-machine call worked on.
    pub machine: Option<u32>,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The origin and run id every recorder of one traced run shares, so the
/// spans fan workers record line up with the main thread's.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    run: u32,
}

impl Clock {
    /// A clock for traced run `run`, starting now.
    pub fn new(run: u32) -> Self {
        Clock {
            origin: Instant::now(),
            run,
        }
    }

    /// An empty recorder on this clock whose spans are tagged `machine`.
    pub fn recorder(self, machine: Option<u32>) -> Spans {
        Spans {
            clock: self,
            machine,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A span recorder. A span opened while another is open becomes its child.
pub struct Spans {
    clock: Clock,
    machine: Option<u32>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// Tags the spans opened from now on with `machine`.
    pub fn on_machine(&mut self, machine: Option<usize>) {
        self.machine = machine.map(machine_id);
    }

    /// Opens a span; close it with [`Spans::close`], innermost first.
    pub fn open(&mut self, layer: Layer, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            run: self.clock.run,
            parent: self.open.last().copied(),
            layer,
            name,
            machine: self.machine,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: u32) {
        let end = self.clock.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// `par::par_map_with` at `width` inside a [`FAN_SPAN`]. Each job runs
    /// inside a [`JOB_SPAN`] and records into a recorder of its own, tagged
    /// with the job's index; those spans move under the fan span once every
    /// job has returned.
    pub fn fan<T: Send, R: Send>(
        &mut self,
        width: usize,
        items: Vec<T>,
        job: impl Fn(usize, T, &mut Spans) -> R + Sync,
    ) -> Vec<R> {
        let clock = self.clock;
        let fan = self.open(Layer::Fan, FAN_SPAN);
        let done = par::par_map_with(width, items, |i, item| {
            let mut local = clock.recorder(Some(machine_id(i)));
            let id = local.open(Layer::Fan, JOB_SPAN);
            let out = job(i, item, &mut local);
            local.close(id);
            (out, local)
        });
        self.close(fan);
        done.into_iter()
            .map(|(out, local)| {
                self.adopt(fan, local);
                out
            })
            .collect()
    }

    /// Moves the spans of a finished worker recorder under `parent`.
    fn adopt(&mut self, parent: u32, worker: Spans) {
        assert!(worker.open.is_empty(), "a worker left spans open");
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// The recorded spans, in opening order per recorder.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

fn machine_id(index: usize) -> u32 {
    u32::try_from(index).expect("fewer than 2^32 machines")
}

/// Writes `spans` as tab-separated rows below a `#` header line.
pub fn write_tsv(w: &mut impl Write, header: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(w, "# {header}")?;
    writeln!(w, "run\tid\tparent\tlayer\tname\tmachine\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let machine = s.machine.map_or_else(|| "-".to_owned(), |m| m.to_string());
        writeln!(
            w,
            "{}\t{id}\t{parent}\t{}\t{}\t{machine}\t{}\t{}",
            s.run,
            s.layer.name(),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_and_fanned_spans_get_their_parents() {
        let mut sp = Clock::new(3).recorder(None);
        let outer = sp.open(Layer::Frontend, "outer");
        sp.time(Layer::Trace, "inner", || ());
        sp.close(outer);
        let doubled = sp.fan(2, vec![1, 2, 3], |_, x, local| {
            local.time(Layer::Kernel, "leaf", || x * 2)
        });
        assert_eq!(doubled, vec![2, 4, 6]);
        let spans = sp.into_spans();
        assert_eq!(spans[1].parent, Some(outer));
        let fan = spans.iter().position(|s| s.name == FAN_SPAN).unwrap() as u32;
        for (i, s) in spans.iter().enumerate() {
            match s.name {
                JOB_SPAN => assert_eq!(s.parent, Some(fan)),
                "leaf" => {
                    let job = s.parent.unwrap() as usize;
                    assert_eq!(spans[job].name, JOB_SPAN);
                    assert_eq!(spans[job].machine, s.machine);
                    assert!(job < i);
                }
                _ => {}
            }
            assert_eq!(s.run, 3);
            assert!(s.end_ns >= s.start_ns);
        }
        let machines: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "leaf")
            .map(|s| s.machine)
            .collect();
        assert_eq!(machines, vec![Some(0), Some(1), Some(2)]);
    }
}
