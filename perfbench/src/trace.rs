//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a simulator layer goes through
//! [`Tracer::timed`], which always measures the call's wall time (the
//! untraced run needs it for its metrics) and, only when tracing is on,
//! records a span: name, start, end, parent and repetition id. Spans stay in
//! memory until [`Tracer::write_json`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.machine_run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition the span belongs to.
    pub run: u32,
}

/// Span recorder; a disabled tracer only measures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new repetition: later spans carry `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Calls `f`, returning its result and its wall time in seconds. When
    /// tracing, spans opened inside `f` become children of this one.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let started = Instant::now();
        if !self.enabled {
            let value = f(self);
            return (value, started.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.nanos(started),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let value = f(self);
        let ended = Instant::now();
        self.open.pop();
        self.spans[index].end_ns = self.nanos(ended);
        (value, (ended - started).as_secs_f64())
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("a run lasts under 584 years")
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (span minus the time its children cover) summed per layer,
    /// the layer being the span name up to its first `.`, over the spans of
    /// the repetitions `runs` selects.
    pub fn self_seconds_by_layer(&self, runs: impl Fn(u32) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if !runs(span.run) {
                continue;
            }
            let layer = span.name.split('.').next().expect("split yields one item");
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *layers.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        layers
    }

    /// The spans as a JSON array, one object per span.
    pub fn write_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"run":{}}}"#,
                    s.name, s.start_ns, s.end_ns, parent, s.run
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
