//! In-memory spans recorded by the benchmark's own wrappers.
//!
//! A span is opened at every layer boundary the benchmark can see from
//! outside (`setup.parse`, `setup.compile`, `setup.load`, `cycle`,
//! `matcher.process`) and kept in memory until the run ends. Parents
//! are whatever span was open at the time, so a layer's self time is
//! its duration minus the part covered by its children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use ops5::{Change, MatchDelta, Matcher, WmeId, WorkingMemory};
use psm_obs::ChromeTrace;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Cycle the span belongs to (0 during set-up).
    pub cycle: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one round. Single-threaded by construction: all
/// boundaries the benchmark wraps are on the driver thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    cycle: std::cell::Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            cycle: std::cell::Cell::new(0),
        }
    }
}

impl Tracer {
    /// Sets the cycle number stamped on spans opened from now on.
    pub fn set_cycle(&self, cycle: u32) {
        self.cycle.set(cycle);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whatever span is currently open.
    pub fn open(&self, name: &'static str) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32;
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            cycle: self.cycle.get(),
        });
        // Stamp the start last so bookkeeping stays outside the span.
        spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in nanoseconds.
    pub fn close(&self, id: u32) -> u64 {
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.end_ns = end;
        span.dur_ns()
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

/// Runs `f`, timing it; with a tracer the time is a recorded span,
/// without one it is a bare clock pair. Returns the result and the
/// elapsed nanoseconds.
pub fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    match tracer {
        Some(t) => {
            let id = t.open(name);
            let out = f();
            (out, t.close(id))
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_nanos() as u64)
        }
    }
}

/// Total and self time of every span name: self = duration minus the
/// durations of direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let row = out.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += s.dur_ns().saturating_sub(*children);
    }
    out
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's.
    pub self_ns: u64,
}

/// Chrome-trace JSON of `spans` (one row, complete events; the span
/// index, its parent and its cycle ride in `args`).
pub fn chrome_json(process: &str, spans: &[Span]) -> String {
    let mut trace = ChromeTrace::new();
    trace.process_name(1, process);
    trace.thread_name(1, 1, "driver");
    for (id, s) in spans.iter().enumerate() {
        let mut args = vec![
            ("id".to_string(), id.to_string()),
            ("cycle".to_string(), s.cycle.to_string()),
        ];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), p.to_string()));
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        trace.complete_with_args(
            1,
            1,
            s.name,
            layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            args,
        );
    }
    trace.to_json()
}

/// A matcher wrapper owned by the benchmark: every call into the
/// wrapped matcher becomes a `matcher.process` span, which is how match
/// time is told apart from select and act inside an
/// [`ops5::Interpreter`] without touching it. Until given a tracer it is
/// a plain pass-through.
pub struct Timed<'t, M> {
    /// The wrapped matcher.
    pub inner: M,
    tracer: Option<&'t Tracer>,
}

impl<'t, M> Timed<'t, M> {
    /// Wraps `inner`; nothing is recorded yet.
    pub fn new(inner: M) -> Self {
        Timed {
            inner,
            tracer: None,
        }
    }

    /// Records every later call as a span of `tracer` (if any).
    pub fn trace_into(&mut self, tracer: Option<&'t Tracer>) {
        self.tracer = tracer;
    }
}

impl<M> Timed<'_, M> {
    fn call<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        match self.tracer {
            Some(t) => timed(Some(t), "matcher.process", || f(&mut self.inner)).0,
            None => f(&mut self.inner),
        }
    }
}

impl<M: Matcher> Matcher for Timed<'_, M> {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.call(|m| m.add_wme(wm, id))
    }

    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.call(|m| m.remove_wme(wm, id))
    }

    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        self.call(|m| m.process(wm, changes))
    }

    fn algorithm_name(&self) -> &'static str {
        self.inner.algorithm_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cycle: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("cycle", 0, 100, None),
            span("matcher.process", 10, 40, Some(0)),
            span("matcher.process", 50, 70, Some(0)),
            span("cycle", 100, 130, None),
            span("matcher.process", 105, 125, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["cycle"],
            LayerTime {
                count: 2,
                total_ns: 130,
                self_ns: 50 + 10
            }
        );
        assert_eq!(
            t["matcher.process"],
            LayerTime {
                count: 3,
                total_ns: 70,
                self_ns: 70
            }
        );
        // Self times of a tree sum to the root durations.
        let total_self: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, 130);
    }

    #[test]
    fn grandchildren_are_charged_to_their_parent_only() {
        let spans = [
            span("a", 0, 100, None),
            span("b", 10, 90, Some(0)),
            span("c", 20, 30, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"].self_ns, 20);
        assert_eq!(t["b"].self_ns, 70);
        assert_eq!(t["c"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_and_stamps_cycles() {
        let tr = Tracer::default();
        tr.set_cycle(7);
        let ((), outer_ns) = timed(Some(&tr), "cycle", || {
            let ((), _) = timed(Some(&tr), "matcher.process", || {
                std::hint::black_box(());
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cycle, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].dur_ns(), outer_ns);
        let json = chrome_json("t", &spans);
        assert!(psm_telemetry::client::Json::parse(&json).is_some());
    }
}
