//! E14 — torture sweep of the counter-virtualization layer.
//!
//! Where E4 samples the read race statistically (a preemption + overflow
//! storm and a monotonicity check), E14 *enumerates* it: the torture
//! harness injects a preemption, a spurious overflow PMI, a forced
//! migration, or a forced hardware spill at every instruction offset of
//! every registered read sequence, on every thread, and a differential
//! oracle (a shadow event ledger outside the PMU path) checks every read
//! for exactness — not just monotonicity.
//!
//! Three arms:
//! * **fixup on** — the shipping configuration. Must be divergence-free.
//! * **fixup off** — re-discovers E4's load/`rdpmc` race precisely: the
//!   failing schedules are shrunk to minimal injection sets.
//! * **spill (fixup on)** — forces self-virtualizing hardware spills
//!   mid-sequence. The kernel never sees a spill, so the restart fix-up
//!   cannot protect the sequence: a documented residual race of hardware
//!   enhancement 2, not a regression.

use crate::spans;
use analysis::Table;
use sim_core::SimResult;
use std::fmt::Write as _;
use torture::{render_repro, run_arm, shrink, TortureConfig};

/// Outcome of one torture arm.
#[derive(Debug, Clone)]
pub struct E14Result {
    /// Arm label.
    pub arm: &'static str,
    /// Restart fix-up setting.
    pub fixup: bool,
    /// Whether forced spills were in the action set.
    pub spill: bool,
    /// Schedules replayed.
    pub schedules: u64,
    /// Reads checked by the oracle.
    pub checks: u64,
    /// Injections fired.
    pub fired: u64,
    /// Schedules with at least one wrong read.
    pub divergent_schedules: u64,
    /// Wrong reads in total.
    pub divergences: u64,
    /// Divergent schedules per 1000 schedules.
    pub divergent_per_1k: f64,
    /// Wall-clock schedules per second (host-dependent; reported on
    /// stderr, never in the deterministic table).
    pub schedules_per_sec: f64,
    /// Shrunk replayable repro of the first failure, if any.
    pub repro: Option<String>,
}

fn run_one(arm: &'static str, fixup: bool, spill: bool, schedules: u64) -> SimResult<E14Result> {
    let cfg = TortureConfig {
        schedules,
        spill,
        ..TortureConfig::default()
    };
    let span = spans::start(format!("e14/{arm}"));
    let report = run_arm(&cfg, fixup)?;
    let secs = (span.elapsed_ms() / 1e3).max(1e-9);
    let schedules_per_sec = report.schedules as f64 / secs;
    span.meta("schedules_per_sec", schedules_per_sec).finish();
    let repro = match &report.first_failure {
        Some(failing) => {
            let minimal = shrink(&cfg, fixup, failing)?;
            Some(render_repro(&cfg, fixup, failing, &minimal)?)
        }
        None => None,
    };
    Ok(E14Result {
        arm,
        fixup,
        spill,
        schedules: report.schedules,
        checks: report.checks,
        fired: report.fired,
        divergent_schedules: report.divergent_schedules,
        divergences: report.divergences,
        divergent_per_1k: report.divergent_schedules as f64 * 1e3 / report.schedules.max(1) as f64,
        schedules_per_sec,
        repro,
    })
}

/// Runs all three arms with `schedules` schedules each.
fn run(schedules: u64) -> SimResult<Vec<E14Result>> {
    Ok(vec![
        run_one("fixup-on", true, false, schedules)?,
        run_one("fixup-off", false, false, schedules)?,
        run_one("spill", true, true, schedules)?,
    ])
}

/// Renders the deterministic arm table (no wall-clock columns).
fn table(rows: &[E14Result]) -> Table {
    let mut t = Table::new(
        "E14: virtualization torture sweep (exhaustive injection + differential oracle)",
        &[
            "arm",
            "fixup",
            "schedules",
            "reads checked",
            "injections",
            "divergent scheds",
            "divergences",
            "div/1k scheds",
        ],
    );
    for r in rows {
        t.row(&[
            r.arm.to_string(),
            if r.fixup { "on" } else { "off" }.to_string(),
            r.schedules.to_string(),
            r.checks.to_string(),
            r.fired.to_string(),
            r.divergent_schedules.to_string(),
            r.divergences.to_string(),
            format!("{:.1}", r.divergent_per_1k),
        ]);
    }
    t
}

/// `run e14`: the arm table, the shrunk fixup-off repro and one line per
/// arm. Per-arm wall time and schedules/sec land in the span registry
/// ([`crate::spans`]), not in the text.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run(300).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    let (on, off, spill) = (&rows[0], &rows[1], &rows[2]);
    if let Some(repro) = &off.repro {
        let _ = writeln!(w, "shrunk fixup-off repro:\n{repro}");
    }
    let _ = writeln!(
        w,
        "Fix-up on: {} wrong reads across {} checked reads and {} injected disturbances.",
        on.divergences, on.checks, on.fired
    );
    let _ = writeln!(
        w,
        "Fix-up off: {} of {} schedules diverged ({:.1}/1k) — the E4 race, found by \
         enumeration.",
        off.divergent_schedules, off.schedules, off.divergent_per_1k
    );
    let _ = writeln!(
        w,
        "Spill arm: {:.1}/1k schedules diverge with the fix-up on under forced \
         mid-sequence hardware spills.",
        spill.divergent_per_1k
    );
    Ok(w)
}
