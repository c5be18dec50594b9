//! E17 — event-trust matrix slice.
//!
//! E14 proves the instruction counter exact under exhaustive disturbance
//! injection; E17 widens the question to *which counters can be trusted
//! through which access method*: it runs a representative slice of the
//! full `torture::matrix` cross-product (event × access method ×
//! disturbance, both workload shapes per cell) and renders the verdict
//! grid. The shipping path (`rdpmc-fixup`) must come back **exact** in
//! every cell; `rdpmc-nofixup` must degrade to **unreliable** under
//! migrations and PMIs (the E4 race, rediscovered per event); the
//! syscall and sampling baselines report **bounded-error** with their
//! measured ε. The full all-events sweep runs via `limit-repro trust`;
//! this experiment pins the slice CI watches.

use crate::spans;
use analysis::Table;
use sim_core::SimResult;
use sim_cpu::EventKind;
use std::fmt::Write as _;
use torture::matrix::{
    enumerate_cells, run_cell, AccessMethod, CellReport, Disturb, MatrixConfig, Verdict,
};

/// Events in the CI slice: the paper's headline counter, a cache-miss
/// event off the memory ladder, and a cycle-denominated event (the
/// coarsest accrual granularity, hence the hardest sampling case).
pub const SLICE_EVENTS: [EventKind; 3] = [
    EventKind::Instructions,
    EventKind::LlcMisses,
    EventKind::MemStallCycles,
];

/// Runs the slice: [`SLICE_EVENTS`] × all methods × all disturbances,
/// `schedules` seeded schedules per (cell, shape). Per-cell wall times
/// land in the span registry as `trust/<event>/<method>`.
fn run(schedules: u64) -> SimResult<Vec<CellReport>> {
    let cfg = MatrixConfig {
        schedules,
        ..MatrixConfig::default()
    };
    let cells = enumerate_cells(&SLICE_EVENTS, &AccessMethod::ALL, &Disturb::ALL);
    let mut reports = Vec::with_capacity(cells.len());
    for cell in cells {
        let span = spans::start(format!(
            "trust/{}/{}",
            cell.event.mnemonic(),
            cell.method.name()
        ));
        reports.push(run_cell(&cfg, cell)?);
        span.finish();
    }
    Ok(reports)
}

/// True when the slice holds the trust contract: every `rdpmc-fixup`
/// cell exact, every `rdpmc-nofixup` cell unreliable under migrate/PMI.
fn contract_holds(reports: &[CellReport]) -> bool {
    reports.iter().all(|r| match r.cell.method {
        AccessMethod::RdpmcFixup => r.verdict == Verdict::Exact,
        AccessMethod::RdpmcNoFixup if matches!(r.cell.disturb, Disturb::Migrate | Disturb::Pmi) => {
            matches!(r.verdict, Verdict::Unreliable { .. })
        }
        _ => true,
    })
}

/// Renders the deterministic verdict grid (no wall-clock columns).
fn table(reports: &[CellReport]) -> Table {
    let mut t = Table::new(
        "E17: event-trust matrix (verdict per event x access method x disturbance)",
        &[
            "event", "method", "none", "preempt", "pmi", "migrate", "spill",
        ],
    );
    for &event in &SLICE_EVENTS {
        for method in AccessMethod::ALL {
            let mut row = vec![event.mnemonic().to_string(), method.name().to_string()];
            for disturb in Disturb::ALL {
                let cell = reports
                    .iter()
                    .find(|r| {
                        r.cell.event == event
                            && r.cell.method == method
                            && r.cell.disturb == disturb
                    })
                    .map(|r| r.verdict.render())
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            t.row(&row);
        }
    }
    t
}

/// `run e17`: the verdict grid at 10 schedules per (cell, shape). Fails
/// if the slice breaks the trust contract. Per-cell wall times land in
/// the span registry as `trust/<event>/<method>`.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run(10).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    if !contract_holds(&rows) {
        return Err(format!("e17 trust contract failed:\n{}", table(&rows)));
    }
    Ok(w)
}
