//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent)`, recorded around a call into
//! one layer's public entry point from the benchmark's own code. Spans
//! live in memory until the run ends. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans
//! cover (children of a parallel sweep overlap, so coverage is the
//! union of their intervals, not their sum).

use std::collections::BTreeMap;

use crate::clock::Clock;

/// One recorded span. Times are nanoseconds on the run's [`Clock`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled recorder runs every closure unwrapped
/// and records nothing, so untraced iterations pay no tracing cost.
pub struct Spans {
    clock: Clock,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(clock: Clock, on: bool) -> Self {
        Self { clock, on, spans: Vec::new(), open: Vec::new() }
    }

    /// A fresh recorder with this one's clock and setting, for work
    /// that runs on another thread and is [`adopt`](Spans::adopt)ed back.
    pub fn fork(&self) -> Self {
        Self::new(self.clock, self.on)
    }

    /// Runs `f` inside a span called `name`; `f` may open nested spans.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.clock.now_ns(), end_ns: 0, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.clock.now_ns();
        out
    }

    /// Moves a forked recorder's spans in, re-rooting its top-level
    /// spans under the span currently open here.
    pub fn adopt(&mut self, child: Spans) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(
            child
                .spans
                .into_iter()
                .map(|s| Span { parent: s.parent.map(|p| p + base).or(parent), ..s }),
        );
    }

    /// Total duration (ms) of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-6).sum()
    }

    /// Durations (ms) of each span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-6).collect()
    }

    /// Summed duration (ms) of the spans with no parent.
    pub fn top_level_ms(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns() as f64 * 1e-6).sum()
    }

    /// Self time (ms) per span name, summed over every span of that name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, s.start_ns, s.end_ns);
            let self_ns = s.dur_ns().saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-6;
        }
        out
    }

    /// One JSON object per span, tagged with the iteration and phase it
    /// came from; ids and parents index within that tag.
    pub fn write_jsonl(&self, iteration: usize, phase: &str, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"iteration\":{iteration},\"phase\":\"{phase}\",\"id\":{id},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut sp = Spans::new(Clock::start(), true);
        sp.spans = vec![
            span("sweep", 0, 10_000_000, None),
            span("cell", 1_000_000, 6_000_000, Some(0)),
            span("cell", 4_000_000, 8_000_000, Some(0)),
            span("inner", 2_000_000, 3_000_000, Some(1)),
        ];
        let by = sp.self_ms_by_name();
        // Children cover [1, 8) ms of the 10 ms sweep.
        assert!((by["sweep"] - 3.0).abs() < 1e-9);
        // 5 + 4 ms of cells, less the 1 ms inner child.
        assert!((by["cell"] - 8.0).abs() < 1e-9);
        assert!((by["inner"] - 1.0).abs() < 1e-9);
        assert!((sp.top_level_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut sp = Spans::new(Clock::start(), true);
        sp.time("sweep", |sp| {
            let mut worker = sp.fork();
            worker.time("cell", |w| w.time("inner", |_| ()));
            sp.adopt(worker);
        });
        let names: Vec<_> = sp.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("sweep", None), ("cell", Some(0)), ("inner", Some(1))]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut sp = Spans::new(Clock::start(), false);
        assert_eq!(sp.time("x", |sp| sp.time("y", |_| 7)), 7);
        assert!(sp.spans.is_empty());
    }
}
