//! E18 — I/O-wait observability: does the stack *name the slow device*?
//!
//! The blocking-I/O model gives sim-os per-device latency distributions
//! and service queues; this experiment validates the observability tier
//! built on top of them, end to end:
//!
//! * **logstore** — the fsync-bound log-structured store. Its
//!   `store.commit` region spends most of its cycles blocked on the
//!   `fsync` device (mean 2M cycles per barrier, well past the slow-I/O
//!   threshold), so (a) the online classifier must flag the region
//!   **io-bound** with a non-zero slow-call count and name `fsync`, and
//!   (b) the what-if engine must rank `fsync-latency` as the region's
//!   top knob at ≥ 2x the runner-up — the causal and the observational
//!   paths must agree on the same device.
//! * **mysqld** — the CPU/lock-bound control. It performs no I/O
//!   syscalls at all, so *no* region may classify io-bound; a false
//!   positive here means the detector's wait-share guard leaks.
//!
//! Both verdicts are deterministic (the device latency streams draw from
//! dedicated `DetRng` streams), so like E16 this is a CI gate: [`render`]
//! surfaces any failed check as an error.

use crate::spans;
use analysis::online::{classify, DetectorConfig, Finding};
use analysis::table::fmt_count;
use analysis::Table;
use limit::{LimitReader, LogMode, StreamConfig};
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use std::fmt::Write as _;
use telemetry::{run_streaming, Collector, Snapshot};
use whatif::{run_whatif, WhatifConfig, WhatifReport};
use workloads::{logstore, mysqld, Workload};

/// Counters the classification runs attach (mirrors `monitor`).
const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// Minimum top-vs-runner-up impact ratio for the what-if verdict.
pub const MIN_DOMINANCE: f64 = 2.0;

/// One contract check.
#[derive(Debug, Clone)]
pub struct E18Check {
    /// What was checked.
    pub what: &'static str,
    /// What the stack reported.
    pub observed: String,
    /// What the planted I/O topology predicts.
    pub expect: &'static str,
    /// Whether the prediction held.
    pub ok: bool,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct E18Result {
    /// What-if report for the logstore shape.
    pub whatif: WhatifReport,
    /// Final-snapshot classification of the logstore run.
    pub logstore_findings: Vec<Finding>,
    /// Final cumulative logstore snapshot (feeds the wait table).
    pub logstore_snapshot: Snapshot,
    /// Final-snapshot classification of the mysqld control run.
    pub mysqld_findings: Vec<Finding>,
    /// One row per contract check.
    pub checks: Vec<E18Check>,
}

impl E18Result {
    /// True when every check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Streams a session to completion and classifies its final (cumulative)
/// snapshot.
fn classify_final(
    session: &mut limit::Session,
    threads: usize,
) -> Result<(Vec<Finding>, Snapshot), String> {
    let mut collector = Collector::new(threads.max(1), EVENTS.len());
    collector.attach(session);
    let mut last: Option<Snapshot> = None;
    run_streaming(session, &mut collector, 50_000, |snap| {
        last = Some(snap.clone());
    })
    .map_err(|e| e.to_string())?;
    let snap = last.ok_or("run produced no snapshots")?;
    let findings = classify(&snap, &EVENTS, &DetectorConfig::default());
    Ok((findings, snap))
}

fn logstore_findings(commits: u64) -> Result<(Vec<Finding>, Snapshot), String> {
    let cfg = logstore::LogstoreConfig {
        commits_per_thread: commits,
        mode: LogMode::Stream(StreamConfig::dropping(256)),
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let (mut session, _) =
        logstore::build(&cfg, &reader, cfg.threads, &EVENTS, KernelConfig::default())
            .map_err(|e| e.to_string())?;
    classify_final(&mut session, cfg.threads)
}

fn mysqld_findings(queries: u64) -> Result<Vec<Finding>, String> {
    let cfg = mysqld::MysqlConfig {
        threads: 4,
        queries_per_thread: queries,
        mode: LogMode::Stream(StreamConfig::dropping(256)),
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let (mut session, _) =
        mysqld::build(&cfg, &reader, cfg.threads, &EVENTS, KernelConfig::default())
            .map_err(|e| e.to_string())?;
    Ok(classify_final(&mut session, cfg.threads)?.0)
}

/// Runs both shapes and checks the I/O observability contract.
fn run(commits: u64, jobs: usize) -> Result<E18Result, String> {
    // Causal path: perturb every knob, expect fsync-latency on top for
    // the commit region.
    let mut wcfg = WhatifConfig::new(Workload::Logstore(logstore::LogstoreConfig::default()));
    wcfg.queries = commits;
    wcfg.jobs = jobs;
    let span = spans::start("e18/whatif");
    let whatif = run_whatif(&wcfg, |_, _| {})?;
    span.finish();

    // Observational path: stream both workloads and classify.
    let span = spans::start("e18/classify-logstore");
    let (ls_findings, ls_snap) = logstore_findings(commits)?;
    span.finish();
    let span = spans::start("e18/classify-mysqld");
    let my_findings = mysqld_findings(100)?;
    span.finish();

    let mut checks = Vec::new();

    // 1. What-if: `store.commit`'s top knob is fsync-latency at >= 2x
    //    the runner-up.
    let ranked = whatif
        .regions
        .iter()
        .find(|r| r.region == "store.commit")
        .map(|r| r.ranked())
        .unwrap_or_default();
    let (top, top_impact) = ranked.first().map_or(("none".to_string(), 0.0), |(k, v)| {
        (k.name().to_string(), *v)
    });
    let vs_impact = ranked.get(1).map_or(0.0, |&(_, v)| v);
    let dominance = if top_impact <= 0.0 {
        0.0
    } else if vs_impact > 0.0 {
        top_impact / vs_impact
    } else {
        f64::INFINITY
    };
    checks.push(E18Check {
        what: "whatif store.commit top knob",
        observed: format!("{top} ({:.1}x runner-up)", dominance),
        expect: "fsync-latency >= 2x",
        ok: top == "fsync-latency" && top_impact > 0.0 && dominance >= MIN_DOMINANCE,
    });

    // 2. Classifier: logstore's commit region is io-bound, the finding
    //    names fsync, and slow calls were counted.
    let io_finding = ls_findings
        .iter()
        .find(|f| f.kind.to_string() == "io-bound" && f.region == "store.commit");
    checks.push(E18Check {
        what: "classify logstore store.commit",
        observed: io_finding.map_or("no io-bound finding".to_string(), |f| {
            format!("io-bound ({})", f.detail)
        }),
        expect: "io-bound on fsync, slow > 0",
        ok: io_finding.is_some_and(|f| f.detail.contains("fsync") && !f.detail.contains(" 0 slow")),
    });

    // 3. Control: the no-I/O mysqld run must not classify io-bound
    //    anywhere.
    let false_io: Vec<&Finding> = my_findings
        .iter()
        .filter(|f| f.kind.to_string() == "io-bound")
        .collect();
    checks.push(E18Check {
        what: "classify mysqld (no-I/O control)",
        observed: if false_io.is_empty() {
            format!("{} findings, none io-bound", my_findings.len())
        } else {
            format!("io-bound on {}", false_io[0].region)
        },
        expect: "no io-bound findings",
        ok: false_io.is_empty(),
    });

    Ok(E18Result {
        whatif,
        logstore_findings: ls_findings,
        logstore_snapshot: ls_snap,
        mysqld_findings: my_findings,
        checks,
    })
}

/// Renders the verdict table.
fn table(r: &E18Result) -> String {
    let mut t = Table::new(
        "E18: I/O-wait observability (classifier + what-if must name the device)",
        &["check", "observed", "expected", "ok"],
    );
    for c in &r.checks {
        t.row(&[
            c.what.to_string(),
            c.observed.clone(),
            c.expect.to_string(),
            if c.ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.to_string()
}

/// Renders the measured per-region wait table from the logstore run.
fn wait_table(r: &E18Result) -> String {
    let mut t = Table::new(
        "E18: logstore per-region I/O accounting (final snapshot)",
        &["region", "exits", "cycles", "io wait", "io calls", "slow"],
    );
    for reg in &r.logstore_snapshot.regions {
        t.row(&[
            reg.name.clone(),
            fmt_count(reg.count),
            fmt_count(reg.event_sum(0)),
            fmt_count(reg.io_wait_sum()),
            fmt_count(reg.io_calls()),
            fmt_count(reg.io_slow_calls()),
        ]);
    }
    t.to_string()
}

/// `run e18`: the verdict table, the logstore wait table and the
/// logstore findings. Fails if any check misses.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let r = run(24, 2)?;
    let _ = writeln!(w, "{}", table(&r));
    let _ = writeln!(w, "{}", wait_table(&r));
    for f in &r.logstore_findings {
        let _ = writeln!(
            w,
            "logstore finding: {}: {} — {}",
            f.region, f.kind, f.detail
        );
    }
    if !r.all_ok() {
        return Err(format!(
            "e18 I/O observability contract failed:\n{}",
            table(&r)
        ));
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_contract_holds() {
        let r = run(12, 2).unwrap();
        for c in &r.checks {
            assert!(
                c.ok,
                "{}: observed {} (expected {})",
                c.what, c.observed, c.expect
            );
        }
    }

    #[test]
    fn verdicts_are_deterministic_across_jobs() {
        let a = run(8, 1).unwrap();
        let b = run(8, 4).unwrap();
        assert_eq!(a.whatif.render(), b.whatif.render());
        assert_eq!(table(&a), table(&b));
        assert_eq!(wait_table(&a), wait_table(&b));
    }
}
