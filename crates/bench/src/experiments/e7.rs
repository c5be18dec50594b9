//! E7 — the synchronization-overhead breakdown vs. thread count.
//!
//! The bottleneck-identification headline: as connections scale, the
//! share of cycles spent in synchronization grows, and precise per-class
//! accounting names the lock responsible.

use analysis::{LockReport, Table};
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use workloads::mysqld::{self, MysqlConfig};

/// One thread-count row.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Worker threads.
    pub threads: usize,
    /// Total guest cycles.
    pub total_cycles: u64,
    /// Busy synchronization share of user cycles (spin + hold + handoff),
    /// `[0, 1]`.
    pub sync_share: f64,
    /// Cycles threads spent blocked on lock futexes (wall time).
    pub blocked_cycles: u64,
    /// Combined share: (busy sync + blocked) / (user cycles + blocked) —
    /// the fraction of thread time lost to synchronization.
    pub combined_share: f64,
    /// Futex waits (blocking events).
    pub futex_waits: u64,
    /// Mean table-lock acquire cycles.
    pub mean_acq_table: f64,
    /// Mean buffer-pool acquire cycles.
    pub mean_acq_buf: f64,
    /// Mean log acquire cycles.
    pub mean_acq_log: f64,
}

/// Runs the thread sweep (arms in parallel on the host).
pub fn run(thread_counts: &[usize], queries: u64, cores: usize) -> SimResult<Vec<E7Row>> {
    let events = [EventKind::Cycles];
    sim_core::parallel::parmap(thread_counts.to_vec(), |threads| {
        let cfg = MysqlConfig {
            threads,
            queries_per_thread: queries,
            ..MysqlConfig::default()
        };
        let reader = LimitReader::with_events(events.to_vec());
        let run = mysqld::run(&cfg, &reader, cores, &events, KernelConfig::default())?;
        let records = run.session.all_records()?;
        let regions = run.image.regions;
        let classes: Vec<(&str, u64, u64)> = regions
            .acq_regions()
            .iter()
            .zip(regions.hold_regions().iter())
            .map(|(&(acq, name), &(hold, _))| (name, acq, hold))
            .collect();
        // User cycles via the virtualized counters themselves.
        let total_user = run.session.counter_grand_total(0)?;
        let report = LockReport::build(&records, &classes, total_user);
        let mean = |name: &str| {
            report
                .class(name)
                .and_then(|c| c.acquire.mean())
                .unwrap_or(0.0)
        };
        let blocked = run.report.blocked_cycles;
        let combined =
            (report.sync_cycles() + blocked) as f64 / (total_user + blocked).max(1) as f64;
        Ok(E7Row {
            threads,
            total_cycles: run.report.total_cycles,
            sync_share: report.sync_share(),
            blocked_cycles: blocked,
            combined_share: combined,
            futex_waits: run.report.futex.0,
            mean_acq_table: mean("table"),
            mean_acq_buf: mean("bufpool"),
            mean_acq_log: mean("log"),
        })
    })
    .into_iter()
    .collect()
}

/// Renders the sweep table.
pub fn table(rows: &[E7Row]) -> Table {
    let mut t = Table::new(
        "E7: synchronization share vs thread count (mysqld, 8 cores)",
        &[
            "threads",
            "total cycles",
            "busy sync",
            "blocked cycles",
            "sync total",
            "futex waits",
            "acq table",
            "acq bufpool",
            "acq log",
        ],
    );
    for r in rows {
        t.row(&[
            r.threads.to_string(),
            analysis::table::fmt_count(r.total_cycles),
            format!("{:.1}%", r.sync_share * 100.0),
            analysis::table::fmt_count(r.blocked_cycles),
            format!("{:.1}%", r.combined_share * 100.0),
            r.futex_waits.to_string(),
            format!("{:.0}", r.mean_acq_table),
            format!("{:.0}", r.mean_acq_buf),
            format!("{:.0}", r.mean_acq_log),
        ]);
    }
    t
}

/// Convenience: builds a full lock report for one thread count (used by
/// tests asserting which class dominates).
pub fn lock_report(threads: usize, queries: u64, cores: usize) -> SimResult<LockReport> {
    let events = [EventKind::Cycles];
    let cfg = MysqlConfig {
        threads,
        queries_per_thread: queries,
        ..MysqlConfig::default()
    };
    let reader = LimitReader::with_events(events.to_vec());
    let run = mysqld::run(&cfg, &reader, cores, &events, KernelConfig::default())?;
    let records = run.session.all_records()?;
    let regions = run.image.regions;
    let classes: Vec<(&str, u64, u64)> = regions
        .acq_regions()
        .iter()
        .zip(regions.hold_regions().iter())
        .map(|(&(acq, name), &(hold, _))| (name, acq, hold))
        .collect();
    let total_user = run.session.counter_grand_total(0)?;
    Ok(LockReport::build(&records, &classes, total_user))
}
