//! `mysqld-stream` and `logstore-fsync`: the `monitor` path.
//!
//! One session streams LiMiT ring records; the collector drains them every
//! [`INTERVAL`] guest cycles and every snapshot is classified online. The
//! untraced round calls `telemetry::run_streaming`; the traced round
//! replays its loop around `Kernel::run_with_hook` from the public
//! `Collector` / `classify` / `Session` calls so each layer gets a span,
//! and its outcome must equal the untraced one exactly.

use super::{digest, Params, Round, Values, Workload};
use crate::stats::Latency;
use crate::trace::{SpanId, Tracer, NO_PARENT};
use analysis::online::{classify, DetectorConfig, Finding, FindingKind};
use fleet::EVENTS;
use limit::{LimitReader, LogMode, Session, StreamConfig};
use sim_core::json::Json;
use sim_core::SimResult;
use sim_os::{KernelConfig, RunReport};
use std::time::Instant;
use telemetry::{run_streaming, Collector, Snapshot};
use workloads::{logstore, mysqld};

/// Drain cadence in guest cycles (the `monitor` default).
const INTERVAL: u64 = 50_000;
/// Per-thread ring slots (the `monitor` default).
const RING_SLOTS: u64 = 256;

/// Guest threads (one core each) and per-thread operations at scale 1.
/// Sized so one round takes about 0.1 s on the reference host.
fn shape(w: Workload) -> (usize, u64) {
    match w {
        Workload::MysqldStream => (8, 500),
        _ => (4, 1_500),
    }
}

pub(super) fn planned_ops(w: Workload, p: &Params) -> u64 {
    let (threads, per_thread) = shape(w);
    threads as u64 * p.scaled(per_thread)
}

fn build(w: Workload, p: &Params) -> SimResult<Session> {
    let (threads, per_thread) = shape(w);
    let mode = LogMode::Stream(StreamConfig::dropping(RING_SLOTS));
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let session = match w {
        Workload::MysqldStream => {
            let cfg = mysqld::MysqlConfig {
                threads,
                queries_per_thread: p.scaled(per_thread),
                mode,
                seed: p.seed,
                ..Default::default()
            };
            mysqld::build(&cfg, &reader, threads, &EVENTS, KernelConfig::default())?.0
        }
        _ => {
            let cfg = logstore::LogstoreConfig {
                threads,
                commits_per_thread: p.scaled(per_thread),
                mode,
                seed: p.seed,
                ..Default::default()
            };
            // Fsync waits advance the guest clock far faster than work
            // does: the default 20 G-cycle budget ends a full round early.
            let kernel = KernelConfig {
                max_cycles: u64::MAX,
                ..Default::default()
            };
            logstore::build(&cfg, &reader, threads, &EVENTS, kernel)?.0
        }
    };
    Ok(session)
}

fn collector_for(w: Workload, session: &Session) -> Collector {
    let mut c = Collector::new(shape(w).0, EVENTS.len());
    c.attach(session);
    c
}

/// One cold set-up: build plus collector attach, in seconds.
pub(super) fn setup(w: Workload, p: &Params) -> Result<f64, String> {
    let t0 = Instant::now();
    let session = build(w, p).map_err(|e| e.to_string())?;
    let collector = collector_for(w, &session);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box((session, collector));
    Ok(secs)
}

/// Per-snapshot bookkeeping shared by both rounds.
#[derive(Default)]
struct Tally {
    snapshots: u64,
    last_delivery: Option<Instant>,
    latencies_ms: Vec<f64>,
    last_drained: u64,
    empty_drains: u64,
    findings: u64,
    /// Distinct (kind, region, I/O device) findings seen over the run.
    seen: Vec<(FindingKind, String, String)>,
}

/// The device an io-bound finding blames ("" for other kinds).
fn device(f: &Finding) -> &str {
    match f.kind {
        FindingKind::IoBound => f
            .detail
            .split_once("blocked on ")
            .and_then(|(_, rest)| rest.split(' ').next())
            .unwrap_or("?"),
        _ => "",
    }
}

impl Tally {
    fn deliver(&mut self, at: Instant, snap: &Snapshot, findings: Vec<Finding>) {
        if let Some(prev) = self.last_delivery {
            self.latencies_ms.push((at - prev).as_secs_f64() * 1e3);
        }
        self.last_delivery = Some(at);
        self.snapshots += 1;
        if snap.drained == self.last_drained {
            self.empty_drains += 1;
        }
        self.last_drained = snap.drained;
        self.findings += findings.len() as u64;
        for f in findings {
            let known = self
                .seen
                .iter()
                .any(|(k, r, d)| *k == f.kind && *r == f.region && d == device(&f));
            if !known {
                let d = device(&f).to_string();
                self.seen.push((f.kind, f.region, d));
            }
        }
    }
}

pub(super) fn round(w: Workload, p: &Params) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut session = build(w, p).map_err(|e| e.to_string())?;
    let mut collector = collector_for(w, &session);
    let det = DetectorConfig::default();
    let mut tally = Tally::default();
    let report = run_streaming(&mut session, &mut collector, INTERVAL, |snap| {
        let at = Instant::now();
        tally.deliver(at, snap, classify(snap, &EVENTS, &det));
    })
    .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    // The final snapshot run_streaming published, rebuilt from the
    // drained collector (cloning every snapshot to keep the last one
    // would cost more than the classifier).
    let last = collector.snapshot(
        tally.snapshots,
        session.kernel.machine.global_clock(),
        &session.regions,
    );
    Ok(finish(w, p, &session, &report, &last, tally, secs))
}

/// One drain → snapshot → classify tick, each call in its own span.
#[allow(clippy::too_many_arguments)]
fn tick(
    t: &Tracer,
    parent: SpanId,
    collector: &mut Collector,
    machine: &mut sim_cpu::Machine,
    seq: u64,
    cycle: u64,
    regions: &limit::Regions,
    det: &DetectorConfig,
    tally: &mut Tally,
) -> SimResult<Snapshot> {
    let a = Instant::now();
    collector.drain(machine)?;
    let b = Instant::now();
    let snap = collector.snapshot(seq, cycle, regions);
    let c = Instant::now();
    let findings = classify(&snap, &EVENTS, det);
    let d = Instant::now();
    t.record_chain(
        &["telemetry.drain", "telemetry.snapshot", "analysis.classify"],
        &[a, b, c, d],
        parent,
    );
    tally.deliver(c, &snap, findings);
    Ok(snap)
}

pub(super) fn traced_round(w: Workload, p: &Params, t: &Tracer) -> Result<Round, String> {
    let fail = |e: sim_core::SimError| e.to_string();
    let t0 = Instant::now();
    let mut session = build(w, p).map_err(fail)?;
    let mut collector = collector_for(w, &session);
    t.record("workloads.build", t0, Instant::now(), None, 0);
    let det = DetectorConfig::default();
    let mut tally = Tally::default();
    let mut seq = 0;
    let run = t.open("sim-os.run", None);
    let result = {
        let regions = &session.regions;
        let (collector, tally, seq) = (&mut collector, &mut tally, &mut seq);
        session.kernel.run_with_hook(INTERVAL, |m, now| {
            *seq += 1;
            tick(t, run, collector, m, *seq, now, regions, &det, tally).map(drop)
        })
    };
    t.close(run);
    let mut report = result.map_err(fail)?;
    // run_streaming's final sweep: records appended after the last tick.
    let cycle = session.kernel.machine.global_clock();
    let last = tick(
        t,
        NO_PARENT,
        &mut collector,
        &mut session.kernel.machine,
        seq + 1,
        cycle,
        &session.regions,
        &det,
        &mut tally,
    )
    .map_err(fail)?;
    let f0 = Instant::now();
    session.finalize_report(&mut report);
    t.record("sim-os.finalize", f0, Instant::now(), None, 0);
    let secs = t0.elapsed().as_secs_f64();
    Ok(finish(w, p, &session, &report, &last, tally, secs))
}

fn finish(
    w: Workload,
    p: &Params,
    session: &Session,
    report: &RunReport,
    last: &Snapshot,
    tally: Tally,
    secs: f64,
) -> Round {
    let instrs = session.kernel.machine.total_retired();
    let cores = session.kernel.machine.num_cores() as f64;
    let mut seen: Vec<String> = tally
        .seen
        .iter()
        .map(|(k, r, d)| format!("{k} {r} {d}").trim_end().to_string())
        .collect();
    seen.sort();
    let fingerprint = Json::object()
        .set(
            "report",
            Json::object()
                .set("total_cycles", report.total_cycles)
                .set("context_switches", report.context_switches)
                .set("preemptions", report.preemptions)
                .set("migrations", report.migrations)
                .set("pmis", report.pmis)
                .set("limit_folds", report.limit_folds)
                .set("limit_fixups", report.limit_fixups)
                .set("limit_unfixed_races", report.limit_unfixed_races)
                .set("syscalls", report.syscalls)
                .set("limit_rejected_ranges", report.limit_rejected_ranges)
                .set("futex_waits", report.futex.0)
                .set("futex_wakes", report.futex.1)
                .set("blocked_cycles", report.blocked_cycles)
                .set("io_submits", report.io_submits)
                .set("io_wait_cycles", report.io_wait_cycles)
                .set("dropped_records", report.warnings.dropped_records),
        )
        .set("guest_instrs", instrs)
        .set("snapshots", tally.snapshots)
        .set("appended", last.appended)
        .set("drained", last.drained)
        .set("dropped", last.dropped)
        .set("findings", tally.findings)
        .set("finding_kinds", seen.clone())
        .set("final_snapshot_digest", digest(&format!("{last:?}")))
        .set("report_digest", digest(&format!("{report:?}")));

    let mut violations = Vec::new();
    if last.dropped != 0 || last.in_flight() != 0 {
        violations.push(format!(
            "final snapshot: {} dropped, {} in flight",
            last.dropped,
            last.in_flight()
        ));
    }
    let want = match w {
        Workload::MysqldStream => "lock-contention mysql.bufpool",
        _ => "io-bound store.commit fsync",
    };
    if !seen.iter().any(|s| s == want) {
        violations.push(format!("no {want:?} finding"));
    }

    let counts: Values = [
        ("sim-os.sim_cycles", report.total_cycles),
        ("sim-os.context_switches", report.context_switches),
        ("sim-os.preemptions", report.preemptions),
        ("sim-os.migrations", report.migrations),
        ("sim-os.syscalls", report.syscalls),
        ("sim-os.pmis", report.pmis),
        ("sim-os.futex_waits", report.futex.0),
        ("sim-os.blocked_cycles", report.blocked_cycles),
        ("sim-os.io_submits", report.io_submits),
        ("sim-os.io_wait_cycles", report.io_wait_cycles),
        ("sim-os.limit_fixups", report.limit_fixups),
        ("sim-os.limit_folds", report.limit_folds),
        ("sim-cpu.guest_instrs", instrs),
        ("sim-mem.llc_misses", last.total_event(2)),
        ("telemetry.drain_calls", tally.snapshots),
        ("telemetry.records_drained", last.drained),
        ("telemetry.records_dropped", last.dropped),
        ("analysis.findings", tally.findings),
        ("workloads.build_calls", 1),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .chain([
        (
            "sim-cpu.ipc",
            instrs as f64 / (report.total_cycles as f64 * cores).max(1.0),
        ),
        (
            "telemetry.empty_drain_frac",
            tally.empty_drains as f64 / tally.snapshots.max(1) as f64,
        ),
    ])
    .collect();

    Round {
        ops: planned_ops(w, p),
        guest_instrs: instrs,
        secs,
        latency: Latency::of(tally.latencies_ms),
        fingerprint,
        violations,
        counts,
    }
}

/// Span-derived per-layer metrics of a traced pass.
pub(super) fn layer_times(t: &Tracer, traced: &[&Round]) -> Values {
    let rounds = traced.len().max(1) as f64;
    let instrs: f64 = traced.iter().map(|r| r.guest_instrs as f64).sum();
    let records: f64 = traced
        .iter()
        .map(|r| r.counts["telemetry.records_drained"])
        .sum();
    let wall_ns: f64 = traced.iter().map(|r| r.secs * 1e9).sum();
    let run = t.aggregate("sim-os.run");
    let drain = t.aggregate("telemetry.drain");
    let snapshot = t.aggregate("telemetry.snapshot");
    let classify = t.aggregate("analysis.classify");
    Values::from([
        ("sim-os.run_self_s", run.self_ns as f64 / rounds / 1e9),
        (
            "sim-os.ns_per_guest_instr",
            run.self_ns as f64 / instrs.max(1.0),
        ),
        ("telemetry.drain_us_p50", drain.p50_ns() / 1e3),
        (
            "telemetry.drain_ns_per_record",
            drain.total_ns as f64 / records.max(1.0),
        ),
        ("telemetry.drain_share", drain.total_ns as f64 / wall_ns),
        ("telemetry.snapshot_us_p50", snapshot.p50_ns() / 1e3),
        (
            "telemetry.snapshot_share",
            snapshot.total_ns as f64 / wall_ns,
        ),
        ("analysis.classify_us_p50", classify.p50_ns() / 1e3),
        (
            "analysis.classify_share",
            classify.total_ns as f64 / wall_ns,
        ),
    ])
}
