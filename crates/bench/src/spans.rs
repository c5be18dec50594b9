//! Self-profiling spans: named host-side wall-clock measurements collected
//! in a process-global registry instead of ad-hoc `[timing]` stderr lines.
//!
//! Experiments record spans as they run (worker threads included — the
//! registry is a mutex); the driver drains them once at the end into the
//! `timings` object of `run-summary.json`, and the trace exporter turns
//! them into host-track slices of the Chrome timeline. Spans measure the
//! *host*, so they never appear in deterministic experiment tables.

use sim_core::json::Json;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, conventionally `area/detail` (e.g. `e14/fixup-on`).
    pub name: String,
    /// Start time in milliseconds since the first span of the process.
    pub start_ms: f64,
    /// Wall-clock duration in milliseconds.
    pub wall_ms: f64,
    /// Numeric annotations (e.g. `schedules_per_sec`).
    pub meta: Vec<(String, f64)>,
}

static REGISTRY: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// An in-flight measurement; finish it to record.
#[derive(Debug)]
pub struct Span {
    name: String,
    t0: Instant,
    meta: Vec<(String, f64)>,
}

/// Starts a span now.
pub fn start(name: impl Into<String>) -> Span {
    let _ = epoch();
    Span {
        name: name.into(),
        t0: Instant::now(),
        meta: Vec::new(),
    }
}

impl Span {
    /// Milliseconds elapsed so far, without stopping the clock.
    pub fn elapsed_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    /// Attaches a numeric annotation.
    pub fn meta(mut self, key: &str, value: f64) -> Self {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Stops the clock and records the span, returning its duration in
    /// milliseconds.
    pub fn finish(self) -> f64 {
        let wall_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        let start_ms = self.t0.duration_since(epoch()).as_secs_f64() * 1e3;
        REGISTRY.lock().unwrap().push(SpanRecord {
            name: self.name,
            start_ms,
            wall_ms,
            meta: self.meta,
        });
        wall_ms
    }
}

/// Records an externally measured span — for durations timed inside a
/// crate that cannot depend on `bench` (e.g. the what-if engine's arm
/// wall times). The span is backdated so it ends now and lasted
/// `wall_ms`.
pub fn record(name: impl Into<String>, wall_ms: f64, meta: &[(&str, f64)]) {
    let now_ms = Instant::now().duration_since(epoch()).as_secs_f64() * 1e3;
    REGISTRY.lock().unwrap().push(SpanRecord {
        name: name.into(),
        start_ms: (now_ms - wall_ms).max(0.0),
        wall_ms,
        meta: meta.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    });
}

/// Removes and returns every span recorded so far, in finish order.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *REGISTRY.lock().unwrap())
}

/// Drains the registry into the `timings` array of a run summary: one
/// `{name, start_ms, wall_ms, ...meta}` object per span.
pub fn drain_json() -> Json {
    Json::Array(
        drain()
            .into_iter()
            .map(|s| {
                let mut o = Json::object()
                    .set("name", s.name)
                    .set("start_ms", s.start_ms)
                    .set("wall_ms", s.wall_ms);
                for (key, value) in &s.meta {
                    o = o.set(key.as_str(), *value);
                }
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_drain_in_finish_order() {
        let outer = start("outer").meta("k", 42.0);
        let inner = start("inner");
        inner.finish();
        let ms = outer.finish();
        assert!(ms >= 0.0);
        let spans = drain();
        // Other tests may have recorded spans concurrently; find ours.
        let names: Vec<_> = spans.iter().map(|s| s.name.as_str()).collect();
        let i = names.iter().position(|&n| n == "inner").unwrap();
        let o = names.iter().position(|&n| n == "outer").unwrap();
        assert!(i < o, "inner finished first");
        assert_eq!(spans[o].meta, vec![("k".to_string(), 42.0)]);
        assert!(spans[o].start_ms <= spans[i].start_ms + spans[i].wall_ms + 1.0);
        assert!(drain().iter().all(|s| s.name != "outer"), "drained");
    }
}
