//! The four benchmark workloads.
//!
//! Every workload is a fixed-work *round* repeated until the timed phase
//! ends. A round re-runs the same seeded inputs, so every round must
//! reproduce the first one's exact outcome (its fingerprint), and at the
//! committed default seed and full scale the first round must match
//! `expected.json`. Host load comes from this one process: the streaming
//! workloads drive one thread, the fleet and trust workloads at most
//! `min(2, nproc)` workers.

mod fleet_mysqld;
mod stream;
mod trust;

use crate::stats::Latency;
use crate::trace::Tracer;
use sim_core::json::Json;
use std::collections::BTreeMap;

/// The seed `expected.json`'s exact fingerprints apply to.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MysqldStream,
    LogstoreFsync,
    FleetMysqld,
    TrustMatrix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MysqldStream,
        Workload::LogstoreFsync,
        Workload::FleetMysqld,
        Workload::TrustMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MysqldStream => "mysqld-stream",
            Workload::LogstoreFsync => "logstore-fsync",
            Workload::FleetMysqld => "fleet-mysqld",
            Workload::TrustMatrix => "trust-matrix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Times one set-up: everything from the workload's start to its
    /// first guest instruction, in seconds.
    pub fn setup(self, p: &Params) -> Result<f64, String> {
        match self {
            Workload::MysqldStream | Workload::LogstoreFsync => stream::setup(self, p),
            Workload::FleetMysqld => fleet_mysqld::setup(p),
            Workload::TrustMatrix => Ok(trust::setup(p)),
        }
    }

    /// Runs one round, with spans recorded into `tracer` when given.
    pub fn round(self, p: &Params, tracer: Option<&Tracer>) -> Result<Round, String> {
        match self {
            Workload::MysqldStream | Workload::LogstoreFsync => match tracer {
                None => stream::round(self, p),
                Some(t) => stream::traced_round(self, p, t),
            },
            Workload::FleetMysqld => fleet_mysqld::round(p, tracer),
            Workload::TrustMatrix => trust::round(p, tracer),
        }
    }

    /// Operations one round attempts.
    pub fn planned_ops(self, p: &Params) -> u64 {
        match self {
            Workload::MysqldStream | Workload::LogstoreFsync => stream::planned_ops(self, p),
            Workload::FleetMysqld => fleet_mysqld::planned_ops(p),
            Workload::TrustMatrix => trust::planned_ops(),
        }
    }

    /// Whether set-up builds a workload session (`workloads.build_ms_p50`
    /// is the median set-up build).
    pub fn builds_sessions(self) -> bool {
        self != Workload::TrustMatrix
    }

    /// Per-layer metrics that come from the traced pass's spans.
    pub fn layer_times(self, t: &Tracer, traced: &[&Round], workers: usize) -> Values {
        match self {
            Workload::MysqldStream | Workload::LogstoreFsync => stream::layer_times(t, traced),
            Workload::FleetMysqld => fleet_mysqld::layer_times(t, traced, workers),
            Workload::TrustMatrix => trust::layer_times(t, traced, workers),
        }
    }
}

/// Inputs every workload takes from the command line.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Multiplies each round's work (1.0 is the committed size).
    pub scale: f64,
    /// Host worker threads for the fleet and trust workloads.
    pub workers: usize,
}

impl Params {
    /// `n` scaled, at least one.
    fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(1)
    }

    /// Whether `expected.json`'s exact fingerprints apply.
    pub fn is_reference(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == 1.0
    }
}

/// Named metric values.
pub type Values = BTreeMap<&'static str, f64>;

/// What one round did.
#[derive(Debug, Clone)]
pub struct Round {
    /// Operations attempted (queries, commits, instances or cells).
    pub ops: u64,
    /// Guest instructions retired across the round's sessions.
    pub guest_instrs: u64,
    /// Host seconds the round took.
    pub secs: f64,
    /// Percentiles of the round's host-latency samples (ms), one per
    /// delivered snapshot, instance or cell.
    pub latency: Latency,
    /// The exact outcome: identical every round of a pass.
    pub fingerprint: Json,
    /// Seed-independent invariants the outcome broke.
    pub violations: Vec<String>,
    /// Exact per-layer counts (simulated statistics and call counts).
    pub counts: Values,
}

/// A stable 64-bit digest of rendered output.
fn digest(text: &str) -> String {
    use std::hash::Hasher;
    let mut h = sim_core::hash::FxHasher::default();
    h.write(text.as_bytes());
    format!("{:016x}", h.finish())
}
