//! E9 — Apache per-request phase accounting.

use analysis::Table;
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use std::fmt::Write as _;
use workloads::apache::{self, ApacheConfig};

/// Events per phase.
pub const EVENTS: [EventKind; 2] = [EventKind::Cycles, EventKind::LlcMisses];

/// One phase's profile.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Phase name.
    pub phase: &'static str,
    /// Records (= requests).
    pub count: u64,
    /// Mean cycles.
    pub mean_cycles: f64,
    /// p99 cycles.
    pub p99_cycles: u64,
    /// Mean LLC misses.
    pub mean_llc: f64,
}

/// The E9 outputs.
#[derive(Debug)]
pub struct E9Result {
    /// Per-phase rows.
    pub rows: Vec<E9Row>,
    /// Handler-phase (cycles, llc-misses) pairs sorted by cycles — the
    /// tail analysis input.
    pub handler_sorted: Vec<(u64, u64)>,
}

/// Runs the accounting.
pub fn run(cfg: &ApacheConfig, cores: usize) -> SimResult<E9Result> {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = apache::run(cfg, &reader, cores, &EVENTS, KernelConfig::default())?;
    let records = run.session.all_records()?;
    let rows = run
        .image
        .regions
        .phases()
        .iter()
        .map(|&(id, phase)| {
            let mut cycles: Vec<u64> = records
                .iter()
                .filter(|(_, r)| r.region == id)
                .map(|(_, r)| r.deltas[0])
                .collect();
            cycles.sort_unstable();
            let llc: u64 = records
                .iter()
                .filter(|(_, r)| r.region == id)
                .map(|(_, r)| r.deltas[1])
                .sum();
            let n = cycles.len() as u64;
            E9Row {
                phase,
                count: n,
                mean_cycles: cycles.iter().sum::<u64>() as f64 / n.max(1) as f64,
                p99_cycles: cycles
                    .get(cycles.len().saturating_sub(1).min(cycles.len() * 99 / 100))
                    .copied()
                    .unwrap_or(0),
                mean_llc: llc as f64 / n.max(1) as f64,
            }
        })
        .collect();
    let mut handler_sorted: Vec<(u64, u64)> = records
        .iter()
        .filter(|(_, r)| r.region == run.image.regions.handler)
        .map(|(_, r)| (r.deltas[0], r.deltas[1]))
        .collect();
    handler_sorted.sort_unstable();
    Ok(E9Result {
        rows,
        handler_sorted,
    })
}

/// Renders the phase table.
fn table(result: &E9Result) -> Table {
    let mut t = Table::new(
        "E9: apache per-request phase accounting (LiMiT precise)",
        &[
            "phase",
            "requests",
            "mean cycles",
            "p99 cycles",
            "mean llc-misses",
        ],
    );
    for r in &result.rows {
        t.row(&[
            r.phase.to_string(),
            r.count.to_string(),
            format!("{:.0}", r.mean_cycles),
            r.p99_cycles.to_string(),
            format!("{:.1}", r.mean_llc),
        ]);
    }
    t
}

/// `run e9`: the phase table and the handler's p50/p99 tail.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let result = run(&ApacheConfig::default(), 8).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&result));
    let h = &result.handler_sorted;
    if !h.is_empty() {
        let p50 = h[h.len() / 2];
        let p99 = h[(h.len() * 99 / 100).min(h.len() - 1)];
        let _ = writeln!(
            w,
            "handler tail: p50 {} cycles / {} misses; p99 {} cycles / {} misses",
            p50.0, p50.1, p99.0, p99.1
        );
    }
    Ok(w)
}
