//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, and the arithmetic that turns them into
//! per-layer numbers.
//!
//! A span is `(name, start, end, parent, unit)`: `unit` is the pass,
//! request or set-up repetition it belongs to. Spans are kept in memory
//! and written out once, when the run ends. With tracing off the tracer
//! reads no clock and records nothing, so untraced runs time the
//! program alone.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub unit: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (to parent nested spans), or `None` when tracing is off.
    pub fn time<T>(
        &self,
        name: &'static str,
        unit: u64,
        parent: Option<u32>,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                unit,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in id order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (two
/// client threads under one window), so their union is subtracted, not
/// their sum. Returned in the order of `spans`.
#[must_use]
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            s.dur_ns()
                .saturating_sub(covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Summed duration of the spans named `name`, per unit, in
/// milliseconds. Every unit in `units` appears (0 when it has none).
#[must_use]
pub fn ms_per_unit(spans: &[Span], name: &str, units: &[u64]) -> Vec<f64> {
    let mut sums: BTreeMap<u64, u64> = units.iter().map(|&u| (u, 0)).collect();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(v) = sums.get_mut(&s.unit) {
            *v += s.dur_ns();
        }
    }
    sums.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// The spans as a Chrome `trace_event` document (one track per unit),
/// each event carrying its id, parent and self time.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.unit,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            self_ns as f64 / 1e3,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        // Parent [0,100); children [10,40) and [30,60) overlap on
        // [30,40), so they cover 50 ns, not 60; a grandchild does not
        // count against the parent.
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 40, Some(0)),
            span(2, 30, 60, Some(0)),
            span(3, 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 30, 8]);
    }

    #[test]
    fn self_time_clips_children_to_parent_and_handles_disjoint() {
        // A child that outlives its parent (a client thread finishing
        // after the window closed) only counts inside the parent.
        let spans = [
            span(0, 100, 200, None),
            span(1, 90, 120, Some(0)),
            span(2, 150, 160, Some(0)),
            span(3, 190, 250, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10 - 10);
    }

    #[test]
    fn covered_merges_nested_and_touching() {
        assert_eq!(covered(&[(0, 10), (10, 20), (2, 5)], 0, 100), 20);
        assert_eq!(covered(&[], 0, 100), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.time("x", 0, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_sums_per_unit() {
        let t = Tracer::new(true);
        t.time("outer", 1, None, |id| {
            t.time("inner", 1, id, |_| ());
            t.time("inner", 1, id, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id)));
        let per = ms_per_unit(&spans, "inner", &[1, 2]);
        assert_eq!(per.len(), 2);
        assert_eq!(per[1], 0.0);
        assert!(chrome_trace(&spans).starts_with("{\"traceEvents\":["));
    }
}
