//! In-memory span recording for the traced run.
//!
//! Every span wraps one call into a layer's public API, made from the
//! benchmark's own code: the crates stay uninstrumented. Spans nest on one
//! thread, carry the id of the cell they belong to, and keep the counters
//! read from the layer's public stats structs right after the call. They
//! stay in memory until [`Tracer::write_jsonl`] writes them out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public function called, as `layer.Function`.
    pub name: &'static str,
    /// The tool or tool kind the call ran ("" when none applies).
    pub tag: &'static str,
    /// The cell the call belongs to (`None` for batch set-up).
    pub cell: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    /// End offset; equal to `start` while the span is open.
    pub end: Duration,
    /// Counters read after the call.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall time between the span's start and end.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    wall: Duration,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Starts the traced wall clock.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: &'static str, cell: Option<u64>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            tag,
            cell,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            counters: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Attaches counters read after span `id`'s call.
    pub fn count(&mut self, id: usize, counters: Vec<(&'static str, u64)>) {
        self.spans[id].counters = counters;
    }

    /// Stops the traced wall clock.
    pub fn finish(&mut self) {
        assert!(self.open.is_empty(), "every span is closed");
        self.wall = self.origin.elapsed();
    }

    /// Traced wall time, from creation to [`Tracer::finish`].
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name` (with tag `tag`, if given).
    #[must_use]
    pub fn total(&self, name: &str, tag: Option<&str>) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::duration)
            .sum()
    }

    /// Span `id`'s duration minus the time its direct children cover
    /// (children of one thread never overlap).
    #[must_use]
    pub fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum();
        self.spans[id].duration().saturating_sub(children)
    }

    /// Share of the traced wall time that no span covers.
    #[must_use]
    pub fn uncovered_frac(&self) -> f64 {
        let covered: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum();
        if self.wall.is_zero() {
            0.0
        } else {
            1.0 - covered.as_secs_f64() / self.wall.as_secs_f64()
        }
    }

    /// The spans as JSON lines: name, tag, cell, parent, start/end/self in
    /// nanoseconds and the counters.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"tag\": \"{}\", \"cell\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counters\": {{{}}}}}",
                s.name,
                s.tag,
                opt(s.cell),
                opt(s.parent.map(|p| p as u64)),
                s.start.as_nanos(),
                s.end.as_nanos(),
                self.self_time(id).as_nanos(),
                counters.join(", ")
            );
        }
        out
    }
}

/// Counter totals over a traced batch, keyed by per-layer metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Adds every counter of a snapshot.
    pub fn add(&mut self, snapshot: &[(&'static str, u64)]) {
        for &(k, v) in snapshot {
            *self.0.entry(k).or_insert(0) += v;
        }
    }

    /// The total for `key`, if any snapshot carried it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(key).copied()
    }

    /// Every total.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_cover_the_wall() {
        let mut t = Tracer::new();
        let root = t.begin("a", "", Some(0));
        let child = t.begin("b", "", Some(0));
        std::thread::sleep(Duration::from_millis(2));
        t.end(child);
        t.end(root);
        t.finish();
        assert!(t.self_time(root) <= t.spans()[root].duration() - t.spans()[child].duration());
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!(t.uncovered_frac() < 0.5);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
