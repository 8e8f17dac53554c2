//! Host-time spans around calls into the system's public API, and the
//! self-time arithmetic that turns them into per-layer busy time.
//!
//! A span's *self* time is its duration minus the durations of the spans
//! opened directly inside it, so nested spans are never counted twice and
//! the self times of all spans add up to the time the outermost spans
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated host time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed duration, children included, in nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus direct children, in nanoseconds.
    pub self_ns: u64,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Span bookkeeping on an explicit nanosecond clock, so the arithmetic
/// can be checked without a real clock.
#[derive(Debug, Default)]
pub struct SpanBook {
    stack: Vec<OpenSpan>,
    stats: BTreeMap<&'static str, SpanStat>,
}

impl SpanBook {
    /// Opens a span named `name` at `now_ns`, nested in the innermost
    /// open span if there is one.
    pub fn open(&mut self, name: &'static str, now_ns: u64) {
        self.stack.push(OpenSpan {
            name,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `now_ns`.
    ///
    /// # Panics
    /// If no span is open or `now_ns` precedes the span's start.
    pub fn close(&mut self, now_ns: u64) {
        let span = self.stack.pop().expect("close without an open span");
        let dur = now_ns
            .checked_sub(span.start_ns)
            .expect("span closed before it opened");
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let stat = self.stats.entry(span.name).or_default();
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur - span.child_ns.min(dur);
    }

    /// Statistics of the spans named `name` (zero if none closed).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Sum of all self times: the time covered by outermost spans.
    pub fn covered_ns(&self) -> u64 {
        self.stats.values().map(|s| s.self_ns).sum()
    }
}

/// The benchmark's span recorder. An untraced probe ignores every span,
/// so the same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Probe {
    book: Option<SpanBook>,
    origin: Instant,
}

impl Probe {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Probe {
            book: None,
            origin: Instant::now(),
        }
    }

    /// A probe that records every span.
    pub fn on() -> Self {
        Probe {
            book: Some(SpanBook::default()),
            origin: Instant::now(),
        }
    }

    /// True if spans are recorded.
    pub fn is_on(&self) -> bool {
        self.book.is_some()
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str) {
        if let Some(book) = self.book.as_mut() {
            book.open(name, self.origin.elapsed().as_nanos() as u64);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(book) = self.book.as_mut() {
            book.close(self.origin.elapsed().as_nanos() as u64);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// The recorded spans (empty for an untraced probe).
    pub fn book(&self) -> Option<&SpanBook> {
        self.book.as_ref()
    }
}
