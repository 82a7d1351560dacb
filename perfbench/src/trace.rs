//! The benchmark's span recorder.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented. A
//! span records its name, the id of the unit of work it belongs to (one
//! contact window, request, round or job), start and end on a clock shared
//! by every thread of the run, its parent span, and the heap allocations
//! the calling thread made while it was open. Spans stay in memory and are
//! written out when the run ends.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run that gives the end-to-end metrics pays one branch per span.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<module>.<function>` of the call it wraps.
    pub name: &'static str,
    /// The unit of work (window, request, round or job) it belongs to.
    pub unit: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Allocations the opening thread made while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Span time, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for an open span; pass it back to [`Tracer::end`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<(usize, u64)>);

/// Aggregates over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span time, nanoseconds.
    pub busy_ns: u64,
    /// Summed span time minus the time of direct child spans, nanoseconds.
    pub self_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
}

impl Totals {
    /// Summed span time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }

    /// Mean span time in microseconds (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / 1e3 / self.calls as f64
        }
    }

    /// Mean allocations per span (0 without calls).
    pub fn allocs_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.allocs as f64 / self.calls as f64
        }
    }
}

/// Records spans for one thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer on the shared `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, unit: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let allocs0 = vc_obs::mem::thread_counters().0;
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
        });
        self.open.push(idx);
        Open(Some((idx, allocs0)))
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        self.close(open, None);
    }

    /// Closes a span under a name only known once the call returned (a
    /// handshake that turned out to resume a cached session).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        self.close(open, Some(name));
    }

    fn close(&mut self, open: Open, rename: Option<&'static str>) {
        let Some((idx, allocs0)) = open.0 else { return };
        let end_ns = self.now_ns();
        let allocs = vc_obs::mem::thread_counters().0 - allocs0;
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, unit);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans (on the same epoch) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name totals with self time (span time minus direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
            t.allocs += s.allocs;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.calls, i.calls), (1, 1));
        assert_eq!(o.self_ns, o.busy_ns - i.busy_ns);
        assert_eq!(i.self_ns, i.busy_ns);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
