//! The fleet driver: spawn N instances, shard them across the host
//! worker pool, roll telemetry up hierarchically, classify the
//! population.
//!
//! Execution is three deterministic phases:
//!
//! 1. **Arrival pre-pass** — the open-loop generator draws the arrival
//!    timeline from the fleet seed ([`crate::arrival`]).
//! 2. **Simulation fan-out** — every instance runs its own session
//!    (machine + kernel + workload, seeded by [`instance_seed`]) on the
//!    bounded host pool (`sim_core::parallel::parmap_with`, the same pool
//!    `limit-repro run` uses). Workers only
//!    decide *when* an instance runs, never *what it computes*.
//! 3. **Roll-up post-pass** — per-instance final snapshots merge into
//!    node aggregates (deterministic instance-index chunks of size
//!    ⌈N/jobs⌉ — *not* host-thread assignment, which is
//!    scheduling-dependent) and then into the fleet aggregate; the
//!    admission queue replays over arrivals × service times
//!    ([`crate::queue`]); the population classifier names fleet-wide
//!    bottlenecks (`analysis::classify_fleet`).
//!
//! Teardown warnings from concurrent instances are captured per instance
//! ([`telemetry::run_collected`]) instead of interleaving on stderr;
//! the report keeps them per instance and [`FleetReport::worst_offender`]
//! names the noisiest one.

use crate::arrival::{arrival_times, ArrivalConfig, ArrivalProcess};
use crate::queue::{simulate, QueueOutcome};
use analysis::online::{classify, DetectorConfig, Finding};
use analysis::{classify_fleet, FleetFinding};
use limit::harness::SessionBuilder;
use limit::{LimitReader, LogMode, StreamConfig};
use sim_core::parallel::parmap_with;
use sim_core::DetRng;
use sim_cpu::EventKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use telemetry::{run_collected, Snapshot};
use workloads::mysqld::MysqlConfig;
use workloads::Workload;

/// Counters every fleet instance attaches (same trio as the single-
/// instance monitor: cycles rank regions, instructions + LLC misses feed
/// the memory-bound detector).
pub const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// Column names matching [`EVENTS`].
pub const EVENT_NAMES: [&str; 3] = ["cycles", "instrs", "llc"];

/// Fleet parameters (all have CLI flags on `limit-repro fleet`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-instance workload; every instance gets a copy shaped by
    /// `threads`, `queries`, its own seed and a stream ring of `capacity`.
    pub workload: Workload,
    /// Number of independent instances.
    pub instances: usize,
    /// Guest worker threads per instance.
    pub threads: usize,
    /// Operations per guest worker (queries, commits, requests, tasks).
    pub queries: u64,
    /// Open-loop load: arrival process and target rate.
    pub arrival: ArrivalConfig,
    /// Concurrent service slots on the node (the admission-queue `c`).
    pub slots: usize,
    /// Fleet seed; every instance seed derives from it by index.
    pub seed: u64,
    /// Host worker threads (wall-clock only — never affects results).
    pub jobs: usize,
    /// Telemetry drain cadence in guest cycles.
    pub interval: u64,
    /// Per-thread ring capacity in records (power of two).
    pub capacity: u64,
    /// Minimum share of instances for a population finding.
    pub min_share: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workload: Workload::Mysqld(MysqlConfig::default()).compact(),
            instances: 32,
            threads: 4,
            queries: 25,
            arrival: ArrivalConfig::default(),
            slots: 4,
            seed: 0xF1EE7,
            jobs: sim_core::parallel::default_jobs(),
            interval: 20_000,
            capacity: 256,
            min_share: 0.25,
        }
    }
}

impl FleetConfig {
    fn validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("--instances must be non-zero".into());
        }
        if !self.capacity.is_power_of_two() {
            return Err(format!(
                "--capacity must be a power of two, got {}",
                self.capacity
            ));
        }
        if self.interval == 0 {
            return Err("--interval must be non-zero".into());
        }
        if self.slots == 0 {
            return Err("--slots must be non-zero".into());
        }
        let rate = self.arrival.rate_per_mcycle;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!(
                "--arrival-rate must be finite and positive, got {rate}"
            ));
        }
        if let ArrivalProcess::Bursty { factor, .. } = self.arrival.process {
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!(
                    "--burst must be finite and at least 1, got {factor}"
                ));
            }
        }
        // Instances differ only in seed, so one shaped config stands for
        // all of them: reject it before any worker starts.
        self.instance_workload(self.seed)
            .0
            .validate()
            .map_err(|e| format!("instance config: {e}"))
    }

    /// The workload one instance runs under `seed`, and its guest thread
    /// count.
    fn instance_workload(&self, seed: u64) -> (Workload, usize) {
        let mode = LogMode::Stream(StreamConfig::dropping(self.capacity));
        self.workload
            .clone()
            .shape(self.threads, self.queries, Some(seed), mode)
    }

    /// Node chunk width: instances `[k·w, (k+1)·w)` form node aggregate
    /// `k`. Defined by index, so the hierarchy is scheduling-independent.
    pub fn node_width(&self) -> usize {
        self.instances.div_ceil(self.jobs.max(1))
    }
}

/// Splitmix64-style per-instance seed derivation: a pure function of
/// `(fleet_seed, index)`, so instance i's entire simulation is fixed no
/// matter which host worker runs it or when.
pub fn instance_seed(fleet_seed: u64, index: u64) -> u64 {
    let mut z = fleet_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tag mixed into the fleet seed for the arrival-stream RNG, so arrival
/// draws never collide with any instance's seed.
const ARRIVAL_STREAM: u64 = 0xA221_11A1;

/// One instance's complete outcome.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance index (also its position in the arrival order).
    pub index: usize,
    /// The derived seed the instance ran under.
    pub seed: u64,
    /// Final telemetry snapshot (post final drain: nothing in flight).
    pub snapshot: Snapshot,
    /// Single-instance bottleneck findings on the final snapshot.
    pub findings: Vec<Finding>,
    /// Simulated run length in cycles — the session's service time.
    pub service_cycles: u64,
    /// Guest instructions retired (for aggregate throughput).
    pub instructions: u64,
    /// Teardown warnings the instance raised.
    pub warnings: Vec<String>,
}

/// One node's merged telemetry.
#[derive(Debug, Clone)]
pub struct NodeAggregate {
    /// Node index.
    pub node: usize,
    /// The instance-index range this node aggregates.
    pub first: usize,
    /// One past the last instance index.
    pub last: usize,
    /// Merged snapshot of the node's instances.
    pub snapshot: Snapshot,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration the fleet ran under.
    pub cfg: FleetConfig,
    /// Per-instance outcomes, in instance order.
    pub instances: Vec<InstanceResult>,
    /// Node aggregates (deterministic index chunks).
    pub nodes: Vec<NodeAggregate>,
    /// The fleet aggregate: all instances merged.
    pub fleet: Snapshot,
    /// Arrival timeline (cycles), one entry per instance.
    pub arrivals: Vec<u64>,
    /// Admission-queue replay over arrivals × service times.
    pub queue: QueueOutcome,
    /// Fleet-wide findings: population bottlenecks, latency percentiles,
    /// overload.
    pub findings: Vec<FleetFinding>,
}

impl FleetReport {
    /// The instance with the most teardown warnings (ties → lowest
    /// index); `None` when the whole fleet tore down clean.
    pub fn worst_offender(&self) -> Option<&InstanceResult> {
        self.instances
            .iter()
            .filter(|i| !i.warnings.is_empty())
            .max_by(|a, b| {
                a.warnings
                    .len()
                    .cmp(&b.warnings.len())
                    .then(b.index.cmp(&a.index))
            })
    }

    /// Total teardown warnings across the fleet.
    pub fn total_warnings(&self) -> usize {
        self.instances.iter().map(|i| i.warnings.len()).sum()
    }

    /// Total guest instructions retired across the fleet.
    pub fn total_instructions(&self) -> u64 {
        self.instances.iter().map(|i| i.instructions).sum()
    }
}

/// The arrival timeline [`run_fleet`] will use for `cfg` — exposed so
/// sweeps (E15) can replay the admission queue at many rates over one
/// simulated fleet, since service times do not depend on arrivals.
pub fn draw_arrivals(cfg: &FleetConfig) -> Vec<u64> {
    let mut rng = DetRng::new(instance_seed(cfg.seed, ARRIVAL_STREAM));
    arrival_times(&cfg.arrival, cfg.instances, &mut rng)
}

/// Runs one instance end to end on the calling worker thread.
fn run_instance(cfg: &FleetConfig, index: usize) -> Result<InstanceResult, String> {
    let seed = instance_seed(cfg.seed, index as u64);
    let (workload, threads) = cfg.instance_workload(seed);
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let builder = SessionBuilder::new(cfg.threads.clamp(1, 8));
    let fail = |e: sim_core::SimError| format!("instance {index}: {e}");
    let mut session = workload.build(&reader, builder, &EVENTS).map_err(fail)?;
    let run = run_collected(&mut session, threads, cfg.interval).map_err(fail)?;
    let findings = classify(&run.snapshot, &EVENTS, &DetectorConfig::default());
    Ok(InstanceResult {
        index,
        seed,
        snapshot: run.snapshot,
        findings,
        service_cycles: run.report.total_cycles,
        instructions: session.kernel.machine.total_retired(),
        warnings: run.warnings,
    })
}

/// Runs the whole fleet. `progress(done, total)` fires after each
/// instance completes (from worker threads, in completion order — use it
/// only for monotone counters, never for result data).
pub fn run_fleet<P>(cfg: &FleetConfig, progress: P) -> Result<FleetReport, String>
where
    P: Fn(usize, usize) + Sync,
{
    cfg.validate()?;
    let n = cfg.instances;

    // Phase 1: arrival pre-pass (host-side, before any worker runs).
    let arrivals = draw_arrivals(cfg);

    // Phase 2: simulation fan-out over the bounded host pool.
    let done = AtomicUsize::new(0);
    let results: Vec<Result<InstanceResult, String>> =
        parmap_with(cfg.jobs, (0..n).collect(), |i| {
            let r = run_instance(cfg, i);
            progress(done.fetch_add(1, Ordering::Relaxed) + 1, n);
            r
        });
    let mut instances = Vec::with_capacity(n);
    for r in results {
        instances.push(r?);
    }

    // Phase 3a: hierarchical roll-up over deterministic index chunks.
    let width = cfg.node_width();
    let mut nodes = Vec::new();
    for (k, chunk) in instances.chunks(width).enumerate() {
        let mut snapshot = Snapshot::empty();
        for inst in chunk {
            snapshot.merge(&inst.snapshot);
        }
        nodes.push(NodeAggregate {
            node: k,
            first: k * width,
            last: k * width + chunk.len(),
            snapshot,
        });
    }
    let mut fleet = Snapshot::empty();
    for node in &nodes {
        fleet.merge(&node.snapshot);
    }

    // Phase 3b: queue replay + population classification.
    let service: Vec<u64> = instances.iter().map(|i| i.service_cycles).collect();
    let queue = simulate(&arrivals, &service, cfg.slots);
    let per_instance: Vec<Vec<Finding>> = instances.iter().map(|i| i.findings.clone()).collect();
    let findings = classify_fleet(
        &per_instance,
        &queue.sojourn,
        &service,
        &queue.stats,
        cfg.min_share,
    );

    Ok(FleetReport {
        cfg: cfg.clone(),
        instances,
        nodes,
        fleet,
        arrivals,
        queue,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(jobs: usize) -> FleetConfig {
        FleetConfig {
            instances: 6,
            threads: 2,
            queries: 8,
            jobs,
            ..Default::default()
        }
    }

    #[test]
    fn instance_seeds_are_index_pure_and_distinct() {
        let a = instance_seed(1, 0);
        assert_eq!(a, instance_seed(1, 0));
        let seeds: Vec<u64> = (0..100).map(|i| instance_seed(0xF1EE7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision");
        assert_ne!(
            instance_seed(1, 5),
            instance_seed(2, 5),
            "fleet seed ignored"
        );
    }

    #[test]
    fn fleet_aggregate_is_identical_across_jobs() {
        let a = run_fleet(&tiny(1), |_, _| {}).unwrap();
        let b = run_fleet(&tiny(3), |_, _| {}).unwrap();
        // Node chunking differs (1 node vs 3 nodes) but the fleet
        // aggregate, queue replay, and findings must not.
        assert_ne!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.queue.sojourn, b.queue.sojourn);
        assert_eq!(
            a.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>(),
            b.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fleet_aggregate_equals_sum_of_instances() {
        let r = run_fleet(&tiny(2), |_, _| {}).unwrap();
        let appended: u64 = r.instances.iter().map(|i| i.snapshot.appended).sum();
        let drained: u64 = r.instances.iter().map(|i| i.snapshot.drained).sum();
        assert_eq!(r.fleet.appended, appended);
        assert_eq!(r.fleet.drained, drained);
        assert_eq!(
            r.fleet.in_flight(),
            0,
            "final snapshots leave nothing in flight"
        );
        // Per-instance conservation too.
        for i in &r.instances {
            assert_eq!(
                i.snapshot.appended,
                i.snapshot.drained + i.snapshot.overwritten + i.snapshot.in_flight()
            );
        }
    }

    #[test]
    fn progress_reaches_total() {
        let peak = AtomicUsize::new(0);
        let r = run_fleet(&tiny(2), |done, total| {
            assert!(done <= total);
            peak.fetch_max(done, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(peak.load(Ordering::Relaxed), r.instances.len());
    }

    #[test]
    fn memcached_fleet_runs_too() {
        let cfg = FleetConfig {
            workload: Workload::parse("memcached").unwrap(),
            instances: 3,
            threads: 2,
            queries: 20,
            jobs: 2,
            ..Default::default()
        };
        let r = run_fleet(&cfg, |_, _| {}).unwrap();
        assert_eq!(r.instances.len(), 3);
        assert!(r.fleet.drained > 0);
        assert!(r.total_instructions() > 0);
    }

    #[test]
    fn proxy_fleet_rolls_up_io_stats() {
        let cfg = FleetConfig {
            workload: Workload::parse("proxy").unwrap(),
            instances: 3,
            threads: 2,
            queries: 8,
            jobs: 2,
            ..Default::default()
        };
        let r = run_fleet(&cfg, |_, _| {}).unwrap();
        assert_eq!(r.instances.len(), 3);
        // The roll-up's per-region io waits must equal the instance sums
        // (merge_io_stats is the only path that can produce them).
        for region in &r.fleet.regions {
            let want: u64 = r
                .instances
                .iter()
                .flat_map(|i| &i.snapshot.regions)
                .filter(|ir| ir.name == region.name)
                .map(|ir| ir.io_wait_sum())
                .sum();
            assert_eq!(region.io_wait_sum(), want, "{}", region.name);
        }
        let fanout_wait: u64 = r
            .fleet
            .regions
            .iter()
            .filter(|reg| reg.name == "proxy.fanout")
            .map(|reg| reg.io_wait_sum())
            .sum();
        assert!(fanout_wait > 0, "fan-out region recorded no net waits");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        // A bad shaped instance config fails before any instance runs.
        let mut cfg = tiny(2);
        cfg.threads = 0;
        let progressed = AtomicUsize::new(0);
        let err = run_fleet(&cfg, |_, _| {
            progressed.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_err();
        assert!(err.starts_with("instance config:"), "{err}");
        assert_eq!(progressed.load(Ordering::Relaxed), 0);
        let mut cfg = tiny(1);
        cfg.capacity = 100;
        assert!(run_fleet(&cfg, |_, _| {}).is_err());
        let mut cfg = tiny(1);
        cfg.instances = 0;
        assert!(run_fleet(&cfg, |_, _| {}).is_err());
        let mut cfg = tiny(1);
        cfg.arrival.rate_per_mcycle = 0.0;
        assert!(run_fleet(&cfg, |_, _| {}).is_err());
    }
}
