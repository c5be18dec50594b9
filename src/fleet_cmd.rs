//! `limit-repro fleet <workload>`: open-loop load over N independent
//! guest instances with hierarchical telemetry roll-up.
//!
//! Every instance is a full session (machine + kernel + workload) seeded
//! from the fleet seed by index; the host pool only decides *when* an
//! instance runs. Stdout (the fleet aggregate, queue statistics, and
//! population findings) and the NDJSON file are byte-identical across
//! `--jobs` values; progress ticks go to stderr.
//!
//! NDJSON output (`<out-dir>/fleet-<workload>.json`, schema 5): one line
//! per instance — its final snapshot, `instance` set to the numeric id —
//! followed by one roll-up line with `"instance": "fleet"` whose counts
//! equal the per-instance sums (`check-telemetry` verifies this).

use crate::monitor::{findings_json, snapshot_json_with};
use fleet::{run_fleet, ArrivalConfig, ArrivalProcess, FleetConfig, FleetReport, EVENT_NAMES};
use sim_core::json::Json;
use workloads::Workload;

/// Knobs of a fleet run (all have CLI flags).
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of instances.
    pub instances: usize,
    /// Guest worker threads per instance.
    pub threads: usize,
    /// Queries / operations per guest worker.
    pub queries: u64,
    /// Target arrival rate in sessions per Mcycle.
    pub arrival_rate: f64,
    /// Burst factor (1.0 = plain Poisson; > 1.0 selects the MMPP arm).
    pub burst: f64,
    /// Concurrent service slots on the node.
    pub slots: usize,
    /// Fleet seed.
    pub seed: u64,
    /// Host worker threads.
    pub jobs: usize,
    /// Telemetry drain cadence in guest cycles.
    pub interval: u64,
    /// Per-thread ring capacity (power of two).
    pub capacity: u64,
    /// Directory receiving `fleet-<workload>.json`.
    pub out_dir: String,
}

impl Default for FleetOptions {
    fn default() -> Self {
        let base = FleetConfig::default();
        FleetOptions {
            instances: base.instances,
            threads: base.threads,
            queries: base.queries,
            arrival_rate: base.arrival.rate_per_mcycle,
            burst: 1.0,
            slots: base.slots,
            seed: base.seed,
            jobs: base.jobs,
            interval: base.interval,
            capacity: base.capacity,
            out_dir: "results".to_string(),
        }
    }
}

fn to_config(workload: Workload, opts: &FleetOptions) -> FleetConfig {
    let process = if opts.burst > 1.0 {
        ArrivalProcess::Bursty {
            factor: opts.burst,
            switch_p: 0.05,
        }
    } else {
        ArrivalProcess::Poisson
    };
    FleetConfig {
        workload: workload.compact(),
        instances: opts.instances,
        threads: opts.threads,
        queries: opts.queries,
        arrival: ArrivalConfig {
            process,
            rate_per_mcycle: opts.arrival_rate,
        },
        slots: opts.slots,
        seed: opts.seed,
        jobs: opts.jobs,
        interval: opts.interval,
        capacity: opts.capacity,
        ..FleetConfig::default()
    }
}

/// Fleet-wide findings rendered for the roll-up line's `findings` array.
fn fleet_findings_json(report: &FleetReport) -> Json {
    Json::Array(
        report
            .findings
            .iter()
            .map(|f| {
                use analysis::FleetFindingKind::*;
                let kind = match f.kind {
                    Population { .. } => "population",
                    Latency { .. } => "latency",
                    Overload { .. } => "overload",
                };
                Json::object()
                    .set("kind", kind)
                    .set("region", f.region.as_str())
                    .set("share", f.share)
                    .set("detail", f.to_string())
            })
            .collect(),
    )
}

/// The NDJSON body: per-instance final snapshots in instance order, then
/// the fleet roll-up line.
fn render_ndjson(workload: &str, report: &FleetReport) -> String {
    let mut out = String::new();
    for inst in &report.instances {
        let line = snapshot_json_with(
            workload,
            (inst.index as u64).into(),
            &inst.snapshot,
            findings_json(&inst.findings),
        );
        out.push_str(&line.compact());
        out.push('\n');
    }
    let roll_up = snapshot_json_with(
        workload,
        "fleet".into(),
        &report.fleet,
        fleet_findings_json(report),
    );
    out.push_str(&roll_up.compact());
    out.push('\n');
    out
}

/// Runs the fleet and writes `<out-dir>/fleet-<workload>.json`.
pub fn run(workload: &str, opts: &FleetOptions) -> Result<(), String> {
    let cfg = to_config(Workload::parse(workload)?, opts);
    eprintln!(
        "fleet: {} x {workload} ({} threads x {} queries each), arrival {:.2}/Mcycle ({}), \
         {} slots, {} host jobs",
        cfg.instances,
        cfg.threads,
        cfg.queries,
        cfg.arrival.rate_per_mcycle,
        match cfg.arrival.process {
            ArrivalProcess::Poisson => "poisson".to_string(),
            ArrivalProcess::Bursty { factor, .. } => format!("bursty x{factor}"),
        },
        cfg.slots,
        cfg.jobs,
    );

    // Progress ticks on stderr, at most ~20 lines however large the fleet.
    let step = (cfg.instances / 20).max(1);
    let report = run_fleet(&cfg, |done, total| {
        if done % step == 0 || done == total {
            eprintln!("fleet: {done}/{total} instances complete");
        }
    })?;

    println!("{}", report.fleet.render(&EVENT_NAMES));
    for f in &report.findings {
        println!("  >> {f}");
    }
    let q = &report.queue.stats;
    println!(
        "\nadmission queue: utilization {:.2}, mean wait {:.0} cycles, peak depth {}",
        q.utilization, q.mean_wait, q.max_queue_depth
    );
    match report.worst_offender() {
        Some(worst) => {
            println!(
                "teardown warnings: {} total; worst offender instance {} ({} warnings):",
                report.total_warnings(),
                worst.index,
                worst.warnings.len()
            );
            for w in &worst.warnings {
                println!("  {w}");
            }
        }
        None => println!("teardown warnings: none — every instance tore down clean"),
    }

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir))?;
    let path = format!("{}/fleet-{workload}.json", opts.out_dir);
    std::fs::write(&path, render_ndjson(workload, &report))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    // The node count stays off stdout: nodes are per-host-worker chunks
    // (⌈N/jobs⌉ wide), so printing them would break the byte-identical-
    // across-`--jobs` guarantee the fleet aggregate itself upholds.
    println!(
        "\nfleet complete: {} instances, {:.1} Minstr total, {} records drained",
        report.instances.len(),
        report.total_instructions() as f64 / 1e6,
        report.fleet.drained
    );
    eprintln!(
        "fleet: merged through {} node aggregates; wrote {path}",
        report.nodes.len()
    );
    println!("wrote {path}");
    Ok(())
}
