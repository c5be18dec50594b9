//! `fleet-mysqld`: `fleet::run_fleet` over many small mysqld instances.
//!
//! An instance's latency sample is the gap between completions on the
//! same host worker, read from a per-thread clock in the `progress`
//! callback (the only hook `run_fleet` offers). The traced round also
//! replays the fleet's post-pass — the arrival draw, the `Snapshot::merge`
//! roll-up, the queue and the population classifier — from their public
//! functions, and each replay must reproduce the report's result.

use super::{digest, Params, Round, Values};
use crate::stats::Latency;
use crate::trace::Tracer;
use analysis::classify_fleet;
use fleet::{draw_arrivals, instance_seed, run_fleet, simulate_queue, FleetConfig, EVENTS};
use limit::{LimitReader, LogMode, StreamConfig};
use sim_core::json::Json;
use sim_os::KernelConfig;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Instant;
use telemetry::Snapshot;
use workloads::mysqld;

/// Instances per round at scale 1 (about 0.1 s on the reference host).
const INSTANCES: u64 = 200;

pub(super) fn planned_ops(p: &Params) -> u64 {
    p.scaled(INSTANCES)
}

fn config(p: &Params) -> FleetConfig {
    FleetConfig {
        instances: p.scaled(INSTANCES) as usize,
        threads: 2,
        queries: 25,
        seed: p.seed,
        jobs: p.workers,
        ..Default::default()
    }
}

/// One cold set-up: the arrival pre-pass plus the first instance's build
/// (the configuration `fleet::driver` gives every mysqld instance).
pub(super) fn setup(p: &Params) -> Result<f64, String> {
    let t0 = Instant::now();
    let cfg = config(p);
    let arrivals = draw_arrivals(&cfg);
    let instance = mysqld::MysqlConfig {
        threads: cfg.threads,
        queries_per_thread: cfg.queries,
        tables: 4,
        table_bytes: 16 * 1024,
        bufpool_bytes: 256 * 1024,
        seed: instance_seed(cfg.seed, 0),
        mode: LogMode::Stream(StreamConfig::dropping(cfg.capacity)),
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let session = mysqld::build(
        &instance,
        &reader,
        cfg.threads,
        &EVENTS,
        KernelConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box((arrivals, session));
    Ok(secs)
}

/// Per-worker completion clocks and the latency samples they yield.
struct Clocks {
    last: HashMap<ThreadId, (u32, Instant)>,
    latencies_ms: Vec<f64>,
}

pub(super) fn round(p: &Params, tracer: Option<&Tracer>) -> Result<Round, String> {
    let cfg = config(p);
    let clocks = Mutex::new(Clocks {
        last: HashMap::new(),
        latencies_ms: Vec::with_capacity(cfg.instances),
    });
    let t0 = Instant::now();
    let run = tracer.map(|t| t.open("fleet.run", None));
    let report = run_fleet(&cfg, |_, _| {
        let now = Instant::now();
        let mut c = clocks.lock().expect("clock lock poisoned");
        let id = thread::current().id();
        let next = c.last.len() as u32 + 1;
        let (worker, prev) = *c.last.entry(id).or_insert((next, t0));
        c.last.insert(id, (worker, now));
        c.latencies_ms.push((now - prev).as_secs_f64() * 1e3);
        drop(c);
        if let Some(t) = tracer {
            t.record("fleet.instance", prev, now, run, worker);
        }
    })?;
    if let (Some(t), Some(run)) = (tracer, run) {
        t.close(run);
    }

    let service: Vec<u64> = report.instances.iter().map(|i| i.service_cycles).collect();
    let mut violations = Vec::new();
    if let Some(t) = tracer {
        let a = Instant::now();
        let arrivals = draw_arrivals(&cfg);
        t.record("fleet.arrivals", a, Instant::now(), None, 0);
        if arrivals != report.arrivals {
            violations.push("replayed arrivals differ from the report's".into());
        }

        let rollup = t.open("fleet.rollup", None);
        let mut merged = Snapshot::empty();
        for chunk in report.instances.chunks(cfg.node_width()) {
            let mut node = Snapshot::empty();
            for inst in chunk {
                let m = Instant::now();
                node.merge(&inst.snapshot);
                t.record("telemetry.merge", m, Instant::now(), Some(rollup), 0);
            }
            let m = Instant::now();
            merged.merge(&node);
            t.record("telemetry.merge", m, Instant::now(), Some(rollup), 0);
        }
        t.close(rollup);
        if merged != report.fleet {
            violations.push("replayed roll-up differs from the fleet aggregate".into());
        }

        let q = Instant::now();
        let queue = simulate_queue(&report.arrivals, &service, cfg.slots);
        t.record("fleet.queue", q, Instant::now(), None, 0);
        if queue.sojourn != report.queue.sojourn {
            violations.push("replayed queue differs from the report's".into());
        }

        let per_instance: Vec<_> = report
            .instances
            .iter()
            .map(|i| i.findings.clone())
            .collect();
        let c = Instant::now();
        let findings = classify_fleet(
            &per_instance,
            &queue.sojourn,
            &service,
            &queue.stats,
            cfg.min_share,
        );
        t.record("analysis.classify_fleet", c, Instant::now(), None, 0);
        if findings != report.findings {
            violations.push("replayed fleet findings differ from the report's".into());
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    let fleet = &report.fleet;
    let instrs = report.total_instructions();
    let service_sum: u64 = service.iter().sum();
    let findings: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    let rollup = format!(
        "{}{}",
        fleet.render(&fleet::EVENT_NAMES),
        findings.join("\n")
    );
    let fingerprint = Json::object()
        .set("instances", report.instances.len() as u64)
        .set("guest_instrs", instrs)
        .set("service_cycles", service_sum)
        .set("appended", fleet.appended)
        .set("drained", fleet.drained)
        .set("dropped", fleet.dropped)
        .set("warnings", report.total_warnings() as u64)
        .set("findings", report.findings.len() as u64)
        .set("rollup_digest", digest(&rollup));

    if fleet.dropped != 0 || fleet.in_flight() != 0 {
        violations.push(format!(
            "fleet roll-up: {} dropped, {} in flight",
            fleet.dropped,
            fleet.in_flight()
        ));
    }
    violations.extend(rollup_mismatch(&report));

    let cores = cfg.threads.clamp(1, 8) as f64;
    let counts = Values::from([
        ("sim-os.sim_cycles", service_sum as f64),
        ("sim-cpu.guest_instrs", instrs as f64),
        (
            "sim-cpu.ipc",
            instrs as f64 / (service_sum as f64 * cores).max(1.0),
        ),
        ("sim-mem.llc_misses", fleet.total_event(2) as f64),
        ("telemetry.records_drained", fleet.drained as f64),
        ("telemetry.records_dropped", fleet.dropped as f64),
        ("analysis.findings", report.findings.len() as f64),
        ("workloads.build_calls", cfg.instances as f64),
    ]);
    let latency = Latency::of(
        clocks
            .into_inner()
            .expect("clock lock poisoned")
            .latencies_ms,
    );
    Ok(Round {
        ops: cfg.instances as u64,
        guest_instrs: instrs,
        secs,
        latency,
        fingerprint,
        violations,
        counts,
    })
}

/// Where the fleet roll-up differs from the sum over its instances.
fn rollup_mismatch(report: &fleet::FleetReport) -> Option<String> {
    let mut sum = (0u64, 0u64, 0u64, 0u64);
    let mut regions: HashMap<u64, (u64, u64)> = HashMap::new();
    for i in &report.instances {
        let s = &i.snapshot;
        sum = (
            sum.0 + s.appended,
            sum.1 + s.drained,
            sum.2 + s.dropped,
            sum.3 + s.overwritten,
        );
        for r in &s.regions {
            let e = regions.entry(r.id).or_default();
            *e = (e.0 + r.count, e.1 + r.event_sum(0));
        }
    }
    let f = &report.fleet;
    if sum != (f.appended, f.drained, f.dropped, f.overwritten) {
        return Some("fleet transport totals differ from the instance sums".into());
    }
    let rolled: HashMap<u64, (u64, u64)> = f
        .regions
        .iter()
        .map(|r| (r.id, (r.count, r.event_sum(0))))
        .collect();
    (rolled != regions).then(|| "fleet region totals differ from the instance sums".into())
}

/// Span-derived per-layer metrics of a traced pass.
pub(super) fn layer_times(t: &Tracer, traced: &[&Round], workers: usize) -> Values {
    let rounds = traced.len().max(1) as f64;
    let run = t.aggregate("fleet.run");
    let instance = t.aggregate("fleet.instance");
    let merge = t.aggregate("telemetry.merge");
    let per_round_ms = |name: &str| t.aggregate(name).total_ns as f64 / rounds / 1e6;
    Values::from([
        ("fleet.instance_ms_p50", instance.p50_ns() / 1e6),
        (
            "fleet.worker_busy_frac",
            instance.total_ns as f64 / (workers as f64 * run.total_ns as f64).max(1.0),
        ),
        ("fleet.arrivals_ms", per_round_ms("fleet.arrivals")),
        ("fleet.queue_ms", per_round_ms("fleet.queue")),
        ("fleet.rollup_ms", per_round_ms("fleet.rollup")),
        (
            "telemetry.merge_us",
            merge.total_ns as f64 / merge.count.max(1) as f64 / 1e3,
        ),
        (
            "analysis.classify_fleet_ms",
            per_round_ms("analysis.classify_fleet"),
        ),
    ])
}
