//! Outside-in span recording for the traced pass.
//!
//! Spans bracket calls into each layer's public functions from the
//! benchmark's own code. They stay in memory: each round's spans are
//! folded into exact per-name aggregates when the round ends (self time
//! needs the whole round, since children can overlap across worker
//! threads), and up to [`RAW_CAP`] raw spans are kept for the Chrome
//! trace written at the end.

use crate::stats;
use sim_core::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans retained for the exported trace (aggregates stay exact).
pub const RAW_CAP: usize = 100_000;

/// Index of a span within the current round.
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One recorded call: nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: SpanId,
    /// Host worker that made the call (0 = the driving thread).
    pub worker: u32,
}

/// Exact per-name totals over every flushed round.
#[derive(Debug, Default, Clone)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Per-round medians of the span durations; their median is the p50
    /// the metrics report (a whole pass of durations would not fit in
    /// memory on the snapshot-heavy workloads).
    pub round_p50_ns: Vec<f64>,
}

impl Aggregate {
    /// Median span duration in nanoseconds (0 when never called).
    pub fn p50_ns(&self) -> f64 {
        stats::median(&self.round_p50_ns).unwrap_or(0.0)
    }
}

#[derive(Debug, Default)]
struct State {
    round: Vec<Span>,
    raw: Vec<Span>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

/// Thread-safe span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Nanoseconds since the epoch for `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        worker: u32,
    ) -> SpanId {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent: parent.unwrap_or(NO_PARENT),
            worker,
        };
        let mut st = self.state.lock().expect("tracer lock poisoned");
        st.round.push(span);
        (st.round.len() - 1) as SpanId
    }

    /// Records back-to-back calls under one lock: `names[i]` ran from
    /// `stamps[i]` to `stamps[i + 1]`.
    pub fn record_chain(&self, names: &[&'static str], stamps: &[Instant], parent: SpanId) {
        assert_eq!(stamps.len(), names.len() + 1, "one stamp per boundary");
        let mut st = self.state.lock().expect("tracer lock poisoned");
        for (name, ends) in names.iter().zip(stamps.windows(2)) {
            st.round.push(Span {
                name,
                start: self.ns(ends[0]),
                end: self.ns(ends[1]),
                parent,
                worker: 0,
            });
        }
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, 0)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        let mut st = self.state.lock().expect("tracer lock poisoned");
        st.round[id as usize].end = end;
    }

    /// Folds the round's spans into the aggregates and starts a new round.
    pub fn end_round(&self) {
        let mut guard = self.state.lock().expect("tracer lock poisoned");
        let st = &mut *guard;
        let spans = &st.round;
        let selfs = self_times(spans);
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(&selfs) {
            let agg = st.aggregates.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += span.end - span.start;
            agg.self_ns += self_ns;
            durations
                .entry(span.name)
                .or_default()
                .push((span.end - span.start) as f64);
        }
        for (name, d) in durations {
            let agg = st.aggregates.get_mut(name).expect("filled above");
            agg.round_p50_ns.push(stats::median(&d).unwrap_or(0.0));
        }
        let room = RAW_CAP.saturating_sub(st.raw.len());
        let base = st.raw.len() as SpanId;
        st.raw.extend(spans.iter().take(room).map(|s| Span {
            parent: match s.parent {
                NO_PARENT => NO_PARENT,
                p if (p as usize) < room => base + p,
                _ => NO_PARENT,
            },
            ..*s
        }));
        // Keep the buffer's capacity: refilling it costs the next round.
        st.round.clear();
    }

    /// The aggregate for `name` (empty when never recorded).
    pub fn aggregate(&self, name: &str) -> Aggregate {
        let st = self.state.lock().expect("tracer lock poisoned");
        st.aggregates.get(name).cloned().unwrap_or_default()
    }

    /// Every aggregate, by name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        let st = self.state.lock().expect("tracer lock poisoned");
        st.aggregates.clone()
    }

    /// The retained spans and exact aggregates as a Chrome trace-event
    /// document (load in Perfetto or chrome://tracing).
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let st = self.state.lock().expect("tracer lock poisoned");
        let events: Vec<Json> = st
            .raw
            .iter()
            .map(|s| {
                Json::object()
                    .set("name", s.name)
                    .set("ph", "X")
                    .set("ts", s.start as f64 / 1e3)
                    .set("dur", (s.end - s.start) as f64 / 1e3)
                    .set("pid", 1u64)
                    .set("tid", u64::from(s.worker))
            })
            .collect();
        let aggregates: Vec<Json> = st
            .aggregates
            .iter()
            .map(|(name, a)| {
                Json::object()
                    .set("name", *name)
                    .set("count", a.count)
                    .set("total_ns", a.total_ns)
                    .set("self_ns", a.self_ns)
                    .set("p50_ns", a.p50_ns())
            })
            .collect();
        Json::object()
            .set("traceEvents", Json::Array(events))
            .set("displayTimeUnit", "ns")
            .set(
                "otherData",
                Json::object()
                    .set("workload", workload)
                    .set("retained_spans", st.raw.len() as u64)
                    .set("aggregates", Json::Array(aggregates)),
            )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (workers run in parallel), so coverage is the length of their union,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            worker: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // 0: [0,100) root; 1: [10,40) child; 2: [20,30) grandchild under 1.
        let spans = [span(0, 100, NO_PARENT), span(10, 40, 0), span(20, 30, 1)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        let spans = [span(0, 100, NO_PARENT), span(0, 30, 0), span(30, 60, 0)];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn overlapping_children_cover_their_union_clipped_to_the_parent() {
        // Two workers' children overlap on [20,40); one runs past the end.
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(20, 50, 0),
            span(90, 120, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn rounds_fold_into_exact_aggregates() {
        let t = Tracer::new();
        let root = t.open("root", None);
        let now = Instant::now();
        t.record("leaf", now, now, Some(root), 1);
        t.close(root);
        t.end_round();
        t.end_round();
        assert_eq!(t.aggregate("root").count, 1);
        assert_eq!(t.aggregate("leaf").count, 1);
        assert_eq!(t.aggregate("missing").count, 0);
        let doc = t.chrome_trace("w");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
