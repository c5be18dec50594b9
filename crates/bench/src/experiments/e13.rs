//! E13 — live-telemetry overhead on the MySQL workload.
//!
//! The telemetry subsystem promises mid-run visibility at bounded memory;
//! this experiment prices it. The same fully-instrumented mysqld runs
//! under four configurations — uninstrumented, per-record log (post-run
//! analysis), aggregate tables (always-on counts, no streaming), and
//! stream mode with a live collector draining the rings every
//! [`DRAIN_INTERVAL`] cycles — and the wall-clock inflation of each is
//! compared. The claim under test: streaming's producer path (ring append
//! plus periodic host drain) costs at most ~2× the aggregate-table fold
//! at 8 threads, i.e. continuous interrogation is affordable.

use analysis::{OverheadRow, Table};
use limit::{CounterReader, LimitReader, LogMode, NullReader, StreamConfig};
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use std::fmt::Write as _;
use telemetry::Collector;
use workloads::mysqld::{self, MysqlConfig};

/// Events attached by every instrumented run.
pub const EVENTS: [EventKind; 2] = [EventKind::Cycles, EventKind::Instructions];

/// The configurations compared, baseline first.
pub const METHODS: [&str; 4] = ["none", "log", "aggregate", "stream"];

/// Per-thread ring capacity (records) for the stream runs. Small on
/// purpose: 64 slots × 32 bytes = 2 KiB keeps the whole ring hot in L1,
/// which matters more than headroom — the collector drains every
/// [`DRAIN_INTERVAL`] cycles, long before 64 records accumulate, so a
/// bigger ring only buys cache misses (1024 slots measured ~11 points of
/// extra overhead at 8 threads).
pub const RING_CAPACITY: u64 = 64;

/// Collector drain cadence in guest cycles.
pub const DRAIN_INTERVAL: u64 = 50_000;

/// Aggregation stripes in the collector.
pub const STRIPES: usize = 4;

/// One (method, thread-count) cell.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Thread count.
    pub threads: usize,
    /// The overhead measurement (`reads` holds records observed).
    pub row: OverheadRow,
    /// Snapshots served mid-run + final (stream only).
    pub snapshots: u64,
    /// Records dropped to full rings (stream only).
    pub dropped: u64,
}

/// One measured cell: (threads, method, cycles, records, snapshots, dropped).
type Cell = (usize, &'static str, u64, u64, u64, u64);

fn mysql_cfg(threads: usize, queries: u64, mode: LogMode) -> MysqlConfig {
    MysqlConfig {
        threads,
        queries_per_thread: queries,
        mode,
        ..MysqlConfig::default()
    }
}

fn mode_for(method: &str) -> LogMode {
    match method {
        "none" | "log" => LogMode::Log,
        "aggregate" => LogMode::Aggregate,
        "stream" => LogMode::Stream(StreamConfig::dropping(RING_CAPACITY)),
        other => panic!("unknown method {other}"),
    }
}

/// Runs the sweep: every (thread count, method) cell, in parallel on the
/// host.
pub fn run(thread_counts: &[usize], queries: u64, cores: usize) -> SimResult<Vec<E13Row>> {
    let cells: Vec<(usize, &str)> = thread_counts
        .iter()
        .flat_map(|&t| METHODS.iter().map(move |&m| (t, m)))
        .collect();
    let measured: Vec<SimResult<Cell>> = sim_core::parallel::parmap(cells, |(threads, method)| {
        let cfg = mysql_cfg(threads, queries, mode_for(method));
        let reader: Box<dyn CounterReader> = if method == "none" {
            Box::new(NullReader::new())
        } else {
            Box::new(LimitReader::with_events(EVENTS.to_vec()))
        };
        let events: &[EventKind] = if method == "none" { &[] } else { &EVENTS };
        if method == "stream" {
            let (mut session, _image) = mysqld::build(
                &cfg,
                reader.as_ref(),
                cores,
                events,
                KernelConfig::default(),
            )?;
            let mut collector = Collector::new(STRIPES, EVENTS.len());
            collector.attach(&session);
            let mut snapshots = 0u64;
            let report =
                telemetry::run_streaming(&mut session, &mut collector, DRAIN_INTERVAL, |_| {
                    snapshots += 1
                })?;
            Ok((
                threads,
                method,
                report.total_cycles,
                collector.drained(),
                snapshots,
                collector.dropped(),
            ))
        } else {
            let run = mysqld::run(
                &cfg,
                reader.as_ref(),
                cores,
                events,
                KernelConfig::default(),
            )?;
            let records = match method {
                "none" => 0,
                "aggregate" => run
                    .session
                    .aggregates_total()?
                    .iter()
                    .map(|a| a.count)
                    .sum(),
                _ => run.session.all_records()?.len() as u64,
            };
            Ok((threads, method, run.report.total_cycles, records, 0, 0))
        }
    });
    let measured = measured.into_iter().collect::<SimResult<Vec<_>>>()?;
    let baseline_of = |threads: usize| -> u64 {
        measured
            .iter()
            .find(|&&(t, m, _, _, _, _)| t == threads && m == "none")
            .map(|&(_, _, cy, _, _, _)| cy)
            .unwrap_or(0)
    };
    Ok(measured
        .iter()
        .map(
            |&(threads, method, cycles, records, snapshots, dropped)| E13Row {
                threads,
                row: OverheadRow {
                    method: method.to_string(),
                    baseline_cycles: baseline_of(threads),
                    instrumented_cycles: cycles,
                    reads: records,
                },
                snapshots,
                dropped,
            },
        )
        .collect())
}

/// Renders the comparison.
fn table(rows: &[E13Row]) -> Table {
    let mut t = Table::new(
        "E13: live-telemetry streaming overhead vs log / aggregate (mysqld)",
        &[
            "threads", "method", "cycles", "overhead", "records", "snaps", "dropped",
        ],
    );
    for r in rows {
        t.row(&[
            r.threads.to_string(),
            r.row.method.clone(),
            analysis::table::fmt_count(r.row.instrumented_cycles),
            if r.row.method == "none" {
                "-".into()
            } else {
                format!("{:+.1}%", r.row.overhead_percent())
            },
            analysis::table::fmt_count(r.row.reads),
            if r.row.method == "stream" {
                r.snapshots.to_string()
            } else {
                "-".into()
            },
            if r.row.method == "stream" {
                r.dropped.to_string()
            } else {
                "-".into()
            },
        ]);
    }
    t
}

/// Fetches the overhead fraction for `(threads, method)`.
fn overhead_of(rows: &[E13Row], threads: usize, method: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.threads == threads && r.row.method == method)
        .map(|r| r.row.overhead())
}

/// Stream overhead as a multiple of aggregate overhead at `threads` — the
/// headline "streaming is affordable" ratio (acceptance: ≤ 2 at 8
/// threads).
pub fn stream_vs_aggregate(rows: &[E13Row], threads: usize) -> Option<f64> {
    let s = overhead_of(rows, threads, "stream")?;
    let a = overhead_of(rows, threads, "aggregate")?;
    Some(s / a.max(1e-9))
}

/// `run e13`: the overhead comparison and the stream-vs-aggregate ratio
/// at 8 threads.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run(&[1, 2, 4, 8], 120, 8).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    if let Some(ratio) = stream_vs_aggregate(&rows, 8) {
        let _ = writeln!(
            w,
            "stream overhead is {ratio:.2}x aggregate overhead at 8 threads"
        );
    }
    Ok(w)
}
