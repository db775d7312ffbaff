//! Spans recorded by the harness around each call into a layer.
//!
//! A [`Tracer`] is a pre-allocated in-memory buffer owned by one thread; a
//! span is a name, a start, an end, the span that caused it and the id of
//! the operation (repetition × module, or request) it belongs to. Nothing is
//! written until the run ends. A disabled tracer reads no clock and records
//! nothing, which is how the end-to-end metrics are taken; the traced run is
//! a separate run, and the difference between the two is the tracing
//! overhead.
//!
//! A layer's *self time* is its spans' duration minus the part their child
//! spans cover, so the self times under a root add up to the root.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same buffer, [`NO_SPAN`] for a root.
    pub parent: u32,
    /// Operation id shared by the spans of one repetition or request.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    open: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer measuring from `epoch` (shared by all threads of a run) with
    /// room for `cap` spans, allocated now.
    pub fn new(on: bool, epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { cap } else { 0 }),
            cap,
            open: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.on {
            return Open(NO_SPAN);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(NO_SPAN);
        }
        let idx = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NO_SPAN {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[open.0 as usize].end_ns = now;
        // Spans close innermost first; a mismatch is a harness bug.
        assert_eq!(self.open.pop(), Some(open.0), "spans must nest");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }
}

/// Totals of all spans that share a name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name span count, total time and self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child_ns);
    }
    out
}

/// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent` (line
/// number of the enclosing span, or null) and `op`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
            s.name, s.start_ns, s.end_ns
        );
        if s.parent == NO_SPAN {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.parent);
        }
        let _ = writeln!(out, ", \"op\": {}}}", s.op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op", NO_SPAN, 0, 100),
            span("compile", 0, 10, 70),
            span("link", 0, 70, 95),
            span("op", NO_SPAN, 100, 150),
            span("compile", 3, 100, 150),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].total_ns, 150);
        assert_eq!(t["op"].self_ns, 15);
        assert_eq!(t["compile"].self_ns, 110);
        assert_eq!(t["link"].self_ns, 25);
        // Self times under the roots add up to the roots.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, t["op"].total_ns);
    }

    #[test]
    fn nesting_is_recorded_and_survives_a_merge() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 16);
        a.span("request", 7, || {});
        let mut b = Tracer::new(true, epoch, 16);
        let outer = b.begin("request", 9);
        b.span("submit", 9, || {});
        b.span("wait", 9, || {});
        b.end(outer);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, NO_SPAN);
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("submit", 1, 9));
        assert_eq!((s[3].name, s[3].parent), ("wait", 1));
        assert!(s[1].start_ns <= s[2].start_ns && s[3].end_ns <= s[1].end_ns);
    }

    #[test]
    fn disabled_or_full_tracers_record_nothing() {
        let mut off = Tracer::off();
        off.span("x", 0, || {});
        assert!(off.spans().is_empty());
        let mut tiny = Tracer::new(true, Instant::now(), 1);
        tiny.span("a", 0, || {});
        tiny.span("b", 0, || {});
        assert_eq!(tiny.spans().len(), 1);
        assert_eq!(tiny.dropped, 1);
    }

    #[test]
    fn jsonl_lines_parse() {
        let text = to_jsonl(&[span("op", NO_SPAN, 1, 5), span("compile", 0, 2, 4)]);
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("compile"));
    }
}
