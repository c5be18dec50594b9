//! Determinism contract of the blocking-I/O model (INTERNALS.md §15).
//!
//! Device latency draws come from dedicated `DetRng` streams keyed only
//! by `(io seed, device, submission order)`, and blocked threads reuse
//! the kernel's sleep machinery — so an I/O-heavy run must be
//! bit-identical across:
//!
//! * interpreter strategies (`ExecMode::SingleStep` vs `ExecMode::Block`
//!   — run-ahead may never change what a device queue observes), and
//! * host parallelism (`--jobs`; the what-if fan-out runs each arm on a
//!   different worker thread, yet renders byte-identically).
//!
//! "Identical" here includes the I/O accounting itself: per-device wait
//! cycles, submit counts, and the per-region telemetry records the rings
//! carry.

use limit::harness::{Session, SessionBuilder};
use limit::{LimitReader, MachineParams};
use sim_cpu::EventKind;
use sim_os::{ExecMode, KernelConfig, RunReport};
use whatif::{run_whatif, WhatifConfig};
use workloads::{logstore, proxy, Workload};

const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// The counter set `stat` reads.
const STAT_EVENTS: [EventKind; 4] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
    EventKind::BranchMisses,
];

/// `workload` on `params`, counting `events`, with the interpreter forced
/// to `exec`.
fn build_exec(
    workload: Workload,
    params: &MachineParams,
    events: &[EventKind],
    exec: ExecMode,
) -> Session {
    let reader = LimitReader::with_events(events.to_vec());
    let builder = SessionBuilder::from_params(params)
        .unwrap()
        .kernel_config(KernelConfig {
            exec,
            ..params.kernel_config()
        });
    workload.build(&reader, builder, events).unwrap()
}

/// Everything observable from one I/O-heavy run.
#[derive(Debug, PartialEq)]
struct Observed {
    report: RunReport,
    total_retired: u64,
    /// Every telemetry record, in drain order (region ids + deltas).
    records: Vec<(sim_core::ThreadId, limit::report::RegionRecord)>,
}

fn observe(session: &Session, report: RunReport) -> Observed {
    Observed {
        total_retired: session.kernel.machine.total_retired(),
        records: session.all_records().unwrap(),
        report,
    }
}

#[test]
fn logstore_is_identical_across_exec_modes() {
    // A small 4-core run, and the full 4 threads x 1000 commits on 8 cores
    // with `stat`'s four events.
    for (commits, cores, events) in [(8, 4, &EVENTS[..]), (1000, 8, &STAT_EVENTS[..])] {
        let cfg = logstore::LogstoreConfig {
            commits_per_thread: commits,
            ..Default::default()
        };
        let params = MachineParams::new(cores);
        let run = |exec| {
            let mut session = build_exec(Workload::Logstore(cfg.clone()), &params, events, exec);
            let report = session.run().unwrap();
            observe(&session, report)
        };
        let single = run(ExecMode::SingleStep);
        let block = run(ExecMode::Block);
        assert!(single.report.io_submits > 0, "workload performed no I/O");
        assert!(single.report.io_wait_cycles > 0);
        assert_eq!(
            single, block,
            "logstore {}x{commits} on {cores} cores: block-stepped run diverged from single-step",
            cfg.threads
        );
    }
}

#[test]
fn proxy_is_identical_across_exec_modes() {
    let cfg = proxy::ProxyConfig {
        requests_per_thread: 8,
        ..Default::default()
    };
    let params = MachineParams::new(4);
    let run = |exec| {
        let mut session = build_exec(Workload::Proxy(cfg.clone()), &params, &EVENTS, exec);
        let report = session.run().unwrap();
        observe(&session, report)
    };
    let single = run(ExecMode::SingleStep);
    let block = run(ExecMode::Block);
    assert_eq!(
        single.report.io_submits,
        cfg.threads as u64 * cfg.requests_per_thread * cfg.fanout
    );
    assert_eq!(
        single, block,
        "proxy: block-stepped run diverged from single-step"
    );
}

#[test]
fn logstore_whatif_is_identical_across_jobs() {
    let run = |jobs| {
        let mut cfg = WhatifConfig::new(Workload::Logstore(Default::default()));
        cfg.queries = 6;
        cfg.jobs = jobs;
        run_whatif(&cfg, |_, _| {}).unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(
        a.render(),
        b.render(),
        "logstore whatif report diverged across --jobs"
    );
}

#[test]
fn proxy_whatif_is_identical_across_jobs() {
    let run = |jobs| {
        let mut cfg = WhatifConfig::new(Workload::Proxy(Default::default()));
        cfg.queries = 6;
        cfg.jobs = jobs;
        run_whatif(&cfg, |_, _| {}).unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(
        a.render(),
        b.render(),
        "proxy whatif report diverged across --jobs"
    );
}
