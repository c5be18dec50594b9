//! E1 — the read-cost table (abstract: "low tens of nanoseconds", "one to
//! two orders of magnitude faster than current access techniques").

use analysis::Table;
use baselines::{PapiReader, PerfReader, RdtscReader, SeqlockReader};
use limit::{CounterReader, LimitReader};
use sim_core::{Freq, SimResult};
use std::fmt::Write as _;
use workloads::microbench;

/// One row of the read-cost table.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Method name.
    pub method: &'static str,
    /// Net cycles per read.
    pub cycles: f64,
    /// Net nanoseconds per read at the default frequency.
    pub nanos: f64,
}

/// Measures every method over `reads` reads each.
pub fn run(reads: u64) -> SimResult<Vec<E1Row>> {
    let freq = Freq::DEFAULT;
    let readers: [&dyn CounterReader; 5] = [
        &RdtscReader::new(),
        &LimitReader::new(1),
        &SeqlockReader::new(1),
        &PerfReader::new(1),
        &PapiReader::new(1),
    ];
    readers
        .iter()
        .map(|r| {
            let rc = microbench::measure_read_cost(*r, reads)?;
            Ok(E1Row {
                method: rc.method,
                cycles: rc.cycles_per_read(),
                nanos: rc.nanos_per_read(freq),
            })
        })
        .collect()
}

/// Renders the paper-style table. The `speedup` column is relative to the
/// LiMiT row.
fn table(rows: &[E1Row]) -> Table {
    let limit_ns = rows
        .iter()
        .find(|r| r.method == "limit")
        .map(|r| r.nanos)
        .unwrap_or(1.0);
    let mut t = Table::new(
        "E1: cost of one counter read (2.5 GHz guest)",
        &["method", "cycles/read", "ns/read", "vs limit"],
    );
    for r in rows {
        t.row(&[
            r.method.to_string(),
            format!("{:.1}", r.cycles),
            format!("{:.1}", r.nanos),
            format!("{:.1}x", r.nanos / limit_ns),
        ]);
    }
    t
}

/// Fetches a method's row.
pub fn row<'a>(rows: &'a [E1Row], method: &str) -> Option<&'a E1Row> {
    rows.iter().find(|r| r.method == method)
}

/// One cell of the multi-counter scaling table.
#[derive(Debug, Clone)]
pub struct E1MultiRow {
    /// Method name.
    pub method: &'static str,
    /// Counters read per measurement.
    pub counters: usize,
    /// Net cycles per measurement (all `counters` reads).
    pub cycles: f64,
}

/// How read cost scales with the number of counters read per measurement:
/// LiMiT scales by ~36 cycles per extra counter, while each syscall method
/// pays a full kernel round-trip *per counter*.
pub fn run_multi(reads: u64) -> SimResult<Vec<E1MultiRow>> {
    let mut out = Vec::new();
    for k in 1..=4usize {
        let limit = LimitReader::new(k);
        let perf = PerfReader::new(k);
        let seq = SeqlockReader::new(k);
        for reader in [&limit as &dyn CounterReader, &seq, &perf] {
            let rc = microbench::measure_multi_read_cost(reader, k, reads)?;
            out.push(E1MultiRow {
                method: rc.method,
                counters: k,
                cycles: rc.cycles_per_read(),
            });
        }
    }
    Ok(out)
}

/// Renders the scaling table (methods as columns).
fn multi_table(rows: &[E1MultiRow]) -> Table {
    let mut t = Table::new(
        "E1b: cycles per measurement vs counters read",
        &["counters", "limit", "seqlock", "perf"],
    );
    for k in 1..=4usize {
        let cell = |m: &str| {
            rows.iter()
                .find(|r| r.counters == k && r.method == m)
                .map(|r| format!("{:.1}", r.cycles))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[k.to_string(), cell("limit"), cell("seqlock"), cell("perf")]);
    }
    t
}

/// `run e1`: the read-cost table, the multi-counter scaling table and the
/// headline LiMiT-vs-perf ratio.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run(5_000).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    let multi = run_multi(2_000).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", multi_table(&multi));
    if let (Some(limit), Some(perf)) = (row(&rows, "limit"), row(&rows, "perf")) {
        let _ = writeln!(
            w,
            "LiMiT: {:.1} ns/read; perf syscall: {:.1} ns/read ({:.0}x slower).",
            limit.nanos,
            perf.nanos,
            perf.nanos / limit.nanos
        );
    }
    Ok(w)
}
