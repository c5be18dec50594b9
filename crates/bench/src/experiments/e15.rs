//! E15 — fleet saturation sweep: where is the node's knee?
//!
//! An open-loop fleet is offered load at a target arrival rate whether or
//! not the node keeps up. Sweeping that rate exposes the *saturation
//! knee*: below it, sessions mostly start on arrival and sojourn ≈
//! service; past it, the admission queue grows without bound and tail
//! latency explodes. The paper's thesis at fleet scale — precise counting
//! makes the bottleneck *population* visible — shows up as the fleet-wide
//! classification attached to every operating point.
//!
//! The sweep exploits the fleet design's central decoupling: an
//! instance's service time is a function of its seed alone, never of the
//! arrival timeline. So the fleet is **simulated once**, and each
//! operating point is a deterministic queue replay (arrival redraw +
//! c-slot recurrence + classification) over the same service times —
//! sweeping a dozen rates costs one fleet run plus microseconds.
//!
//! Rates are chosen as fractions of the node's measured capacity
//! (`slots / mean_service`), so the knee always sits inside the table no
//! matter how the workload is calibrated.

use crate::spans;
use analysis::{classify_fleet, FleetFindingKind, Table};
use fleet::{draw_arrivals, run_fleet, simulate_queue, FleetConfig};
use std::fmt::Write as _;

/// One operating point of the sweep.
#[derive(Debug, Clone)]
pub struct E15Point {
    /// Offered load as a fraction of node capacity.
    pub frac: f64,
    /// Target arrival rate in sessions per Mcycle.
    pub rate: f64,
    /// Offered load ρ measured from the drawn timeline.
    pub utilization: f64,
    /// Sojourn percentiles in cycles.
    pub p50: u64,
    /// p95 sojourn.
    pub p95: u64,
    /// p99 sojourn.
    pub p99: u64,
    /// Mean admission wait in cycles.
    pub mean_wait: f64,
    /// Peak admission-queue depth.
    pub max_depth: u64,
    /// Whether the classifier flagged overload at this point.
    pub saturated: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct E15Result {
    /// Operating points, in offered-load order.
    pub points: Vec<E15Point>,
    /// Mean service time in cycles across the fleet.
    pub mean_service: f64,
    /// Node capacity in sessions per Mcycle (`slots / mean_service`).
    pub capacity_rate: f64,
    /// First saturated rate — the knee — if the sweep crossed it.
    pub knee: Option<f64>,
    /// The leading fleet-wide population finding (rate-independent:
    /// instances bottleneck the same way regardless of admission).
    pub top_population: Option<String>,
}

/// Simulates one fleet, then replays the admission queue at each capacity
/// fraction in `fracs`.
fn run(instances: usize, fracs: &[f64], jobs: usize) -> Result<E15Result, String> {
    let base = FleetConfig {
        instances,
        threads: 2,
        queries: 12,
        jobs,
        ..FleetConfig::default()
    };
    let span = spans::start("e15/fleet");
    let report = run_fleet(&base, |_, _| {})?;
    span.finish();

    let service: Vec<u64> = report.instances.iter().map(|i| i.service_cycles).collect();
    let mean_service = service.iter().sum::<u64>() as f64 / service.len().max(1) as f64;
    let capacity_rate = base.slots as f64 * 1_000_000.0 / mean_service.max(1.0);
    let per_instance: Vec<Vec<analysis::Finding>> = report
        .instances
        .iter()
        .map(|i| i.findings.clone())
        .collect();

    let mut points = Vec::with_capacity(fracs.len());
    let mut knee = None;
    let mut top_population = None;
    for &frac in fracs {
        let rate = frac * capacity_rate;
        let mut cfg = base.clone();
        cfg.arrival.rate_per_mcycle = rate;
        let arrivals = draw_arrivals(&cfg);
        let q = simulate_queue(&arrivals, &service, cfg.slots);
        let findings = classify_fleet(&per_instance, &q.sojourn, &service, &q.stats, cfg.min_share);
        let saturated = findings
            .iter()
            .any(|f| matches!(f.kind, FleetFindingKind::Overload { .. }));
        if saturated && knee.is_none() {
            knee = Some(rate);
        }
        if top_population.is_none() {
            top_population = findings
                .iter()
                .find(|f| matches!(f.kind, FleetFindingKind::Population { .. }))
                .map(|f| f.to_string());
        }
        let lat = findings
            .iter()
            .find_map(|f| match f.kind {
                FleetFindingKind::Latency { p50, p95, p99 } => Some((p50, p95, p99)),
                _ => None,
            })
            .unwrap_or((0, 0, 0));
        points.push(E15Point {
            frac,
            rate,
            utilization: q.stats.utilization,
            p50: lat.0,
            p95: lat.1,
            p99: lat.2,
            mean_wait: q.stats.mean_wait,
            max_depth: q.stats.max_queue_depth,
            saturated,
        });
    }
    Ok(E15Result {
        points,
        mean_service,
        capacity_rate,
        knee,
        top_population,
    })
}

/// Renders the sweep table.
fn table(r: &E15Result) -> Table {
    let mut t = Table::new(
        "E15: fleet saturation sweep (open-loop arrival rate vs sojourn latency)",
        &[
            "load",
            "rate/Mcyc",
            "util ρ",
            "p50 kcyc",
            "p95 kcyc",
            "p99 kcyc",
            "mean wait kcyc",
            "max depth",
            "state",
        ],
    );
    for p in &r.points {
        t.row(&[
            format!("{:.2}x", p.frac),
            format!("{:.2}", p.rate),
            format!("{:.2}", p.utilization),
            format!("{:.1}", p.p50 as f64 / 1e3),
            format!("{:.1}", p.p95 as f64 / 1e3),
            format!("{:.1}", p.p99 as f64 / 1e3),
            format!("{:.1}", p.mean_wait / 1e3),
            p.max_depth.to_string(),
            if p.saturated { "saturated" } else { "ok" }.to_string(),
        ]);
    }
    t
}

/// `run e15`: the 32-instance sweep, the knee, the fleet-wide bottleneck
/// and the node's capacity.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let fracs = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
    let r = run(32, &fracs, 2)?;
    let _ = writeln!(w, "{}", table(&r));
    match r.knee {
        Some(k) => {
            let _ = writeln!(
                w,
                "saturation knee at {k:.2} arrivals/Mcycle ({:.2}x of node capacity \
                 {:.2}/Mcycle)",
                k / r.capacity_rate,
                r.capacity_rate
            );
        }
        None => {
            let _ = writeln!(w, "no knee inside the swept range");
        }
    }
    if let Some(pop) = &r.top_population {
        let _ = writeln!(w, "fleet-wide bottleneck: {pop}");
    }
    let _ = writeln!(
        w,
        "Node capacity: {:.2} sessions/Mcycle ({} slots, mean service {:.0} kcycles).",
        r.capacity_rate,
        FleetConfig::default().slots,
        r.mean_service / 1e3
    );
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_finds_a_knee_and_latency_grows_past_it() {
        let r = run(12, &[0.25, 0.5, 1.5, 3.0], 2).unwrap();
        assert_eq!(r.points.len(), 4);
        let knee = r.knee.expect("sweep crosses capacity, knee must appear");
        assert!(knee > 0.0);
        // Below capacity: no saturation; well past it: saturated.
        assert!(!r.points[0].saturated, "0.25x load flagged saturated");
        assert!(r.points[3].saturated, "3x load not flagged saturated");
        // Tail latency at 3x dominates tail latency at 0.25x.
        assert!(r.points[3].p99 > r.points[0].p99 * 2);
        // The population finding names a region.
        assert!(r.top_population.is_some());
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(8, &[0.5, 2.0], 1).unwrap();
        let b = run(8, &[0.5, 2.0], 3).unwrap();
        assert_eq!(format!("{}", table(&a)), format!("{}", table(&b)));
        assert_eq!(a.knee, b.knee);
    }
}
