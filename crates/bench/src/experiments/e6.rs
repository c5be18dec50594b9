//! E6 — the MySQL critical-section-length histogram.
//!
//! The "previously obscured" insight: the vast majority of critical
//! sections are far shorter than either a sampling interval or a syscall-
//! priced probe, so only a ~tens-of-ns read can measure them.

use analysis::{BottleneckReport, LockReport, Table};
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use std::fmt::Write as _;
use workloads::mysqld::{self, MysqlConfig, MysqlRun};

/// The E6 outputs: the lock report and the run it came from.
#[derive(Debug)]
pub struct E6Result {
    /// Per-class hold/acquire distributions.
    pub report: LockReport,
    /// The underlying run.
    pub run: MysqlRun,
}

/// Runs the instrumented workload and builds the lock report.
pub fn run(cfg: &MysqlConfig, cores: usize) -> SimResult<E6Result> {
    let events = [EventKind::Cycles, EventKind::Instructions];
    let reader = LimitReader::with_events(events.to_vec());
    let run = mysqld::run(cfg, &reader, cores, &events, KernelConfig::default())?;
    let records = run.session.all_records()?;
    let regions = run.image.regions;
    let classes: Vec<(&str, u64, u64)> = regions
        .acq_regions()
        .iter()
        .zip(regions.hold_regions().iter())
        .map(|(&(acq, name), &(hold, _))| (name, acq, hold))
        .collect();
    // Denominator: the sum of every thread's *virtualized* cycle counter
    // (counter 0) — user cycles only, kernel time excluded.
    let total = run.session.counter_grand_total(0)?;
    let report = LockReport::build(&records, &classes, total);
    Ok(E6Result { report, run })
}

/// Renders the summary table.
fn table(result: &E6Result) -> Table {
    let mut t = Table::new(
        "E6: critical-section lengths by lock class (cycles)",
        &["class", "sections", "mean", "p50~", "p99~", "<1k cycles"],
    );
    for c in &result.report.classes {
        t.row(&[
            c.name.clone(),
            c.hold.count().to_string(),
            format!("{:.0}", c.hold.mean().unwrap_or(0.0)),
            c.hold.quantile(0.5).map_or("-".into(), |v| v.to_string()),
            c.hold.quantile(0.99).map_or("-".into(), |v| v.to_string()),
            format!("{:.0}%", c.short_fraction(1024) * 100.0),
        ]);
    }
    t
}

/// Renders the ASCII histograms per class.
fn histograms(result: &E6Result) -> String {
    let mut out = String::new();
    for c in &result.report.classes {
        out.push_str(&format!("\nhold-time distribution: `{}`\n", c.name));
        out.push_str(&c.hold.render_ascii(40));
    }
    out
}

/// `run e6`: the 16-thread lock table, the hold-time histograms, the
/// synchronization share and the ranked bottleneck.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let cfg = MysqlConfig {
        threads: 16,
        queries_per_thread: 150,
        ..Default::default()
    };
    let result = run(&cfg, 8).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&result));
    let _ = writeln!(w, "{}", histograms(&result));
    let _ = writeln!(
        w,
        "Synchronization share of user cycles: {:.1}%",
        result.report.sync_share() * 100.0
    );
    // The title operation: rank the instrumented regions and name the
    // bottleneck.
    let records = result
        .run
        .session
        .all_records()
        .map_err(|e| e.to_string())?;
    let ranking = BottleneckReport::from_records(
        &records,
        &result.run.session.regions,
        result.report.total_cycles,
        0,
    );
    let _ = writeln!(
        w,
        "\n{}",
        ranking.table("bottleneck ranking (share of user cycles)")
    );
    if let Some(top) = ranking.heaviest() {
        let _ = writeln!(
            w,
            "identified bottleneck: `{}` ({:.1}% of cycles)",
            top.name,
            top.share * 100.0
        );
    }
    Ok(w)
}
