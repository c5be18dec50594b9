//! Runtime-parameter regression tests.
//!
//! The cost model, memory-hierarchy latencies, and kernel scheduling
//! costs used to be compile-time constants; they are now a runtime
//! [`MachineParams`] threaded from the harness down. That refactor is
//! only safe if the default parameter set is *bit-for-bit* the machine
//! the constants used to describe — every committed experiment table and
//! BENCH baseline was measured on it. These tests pin that equivalence,
//! and pin the block-stepped fast path against the single-step
//! interpreter on a *non-default* machine (the what-if engine runs every
//! perturbed arm through the fast path, so the differential contract has
//! to hold away from the defaults too).

use limit::harness::{Session, SessionBuilder};
use limit::{LimitReader, MachineParams};
use sim_cpu::{EventKind, MachineConfig};
use sim_os::{ExecMode, KernelConfig, RunReport};
use workloads::{memcached, mysqld, Workload};

const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// `MachineParams::default()` must describe exactly the machine the
/// legacy constructors build.
#[test]
fn default_params_reproduce_legacy_configs() {
    for cores in [1, 4, 8] {
        let p = MachineParams::new(cores);
        assert_eq!(
            p.machine_config(),
            MachineConfig::new(cores),
            "machine config diverged at {cores} cores"
        );
        let k = p.kernel_config();
        let d = KernelConfig::default();
        assert_eq!(k.quantum, d.quantum);
        assert_eq!(k.ctx_switch_cost, d.ctx_switch_cost);
        assert_eq!(k.exec, d.exec);
    }
    assert!(
        MachineParams::default().validate().unwrap().is_empty(),
        "default params must validate clean (no degenerate-cost warnings)"
    );
}

/// Everything observable from one run, gathered for exact comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    report: RunReport,
    total_retired: u64,
    counters: Vec<Vec<u64>>,
}

fn observe(session: &Session, report: RunReport) -> Observed {
    let counters = session
        .spawned_tids()
        .into_iter()
        .map(|tid| {
            (0..EVENTS.len())
                .map(|i| session.counter_total(tid, i).unwrap_or(u64::MAX))
                .collect()
        })
        .collect();
    Observed {
        report,
        total_retired: session.kernel.machine.total_retired(),
        counters,
    }
}

/// A default-params run must be bit-identical to the legacy
/// constant-configured path — same kernel report, same retired totals,
/// same virtualized counters.
#[test]
fn default_params_run_is_bit_identical_to_legacy_path() {
    let cfg = mysqld::MysqlConfig {
        queries_per_thread: 40,
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());

    let legacy = {
        let r = mysqld::run(&cfg, &reader, 4, &EVENTS, KernelConfig::default()).unwrap();
        observe(&r.session, r.report)
    };
    let via_params = {
        let builder = SessionBuilder::from_params(&MachineParams::new(4)).unwrap();
        let mut session = Workload::Mysqld(cfg.clone())
            .build(&reader, builder, &EVENTS)
            .unwrap();
        let report = session.run().unwrap();
        observe(&session, report)
    };
    assert_eq!(
        legacy, via_params,
        "MachineParams::default() run diverged from the legacy constant path"
    );
}

/// The block-stepped fast path must agree with single-step on a
/// perturbed machine, not just the default one.
#[test]
fn exec_modes_agree_under_non_default_params() {
    let mut params = MachineParams::new(4);
    params.cost.atomic_penalty = 55;
    params.cost.branch_miss_penalty = 40;
    params.hierarchy.dram.latency = 420;
    params.hierarchy.llc_latency = 61;
    params.quantum = 1_000_000;
    params.ctx_switch_cost = 7_000;

    let cfg = memcached::MemcachedConfig {
        ops_per_worker: 50,
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let builder = SessionBuilder::from_params(&params)
            .unwrap()
            .kernel_config(KernelConfig {
                exec,
                ..params.kernel_config()
            });
        let mut session = Workload::Memcached(cfg.clone())
            .build(&reader, builder, &EVENTS)
            .unwrap();
        let report = session.run().unwrap();
        observe(&session, report)
    };
    assert_eq!(
        run(ExecMode::SingleStep),
        run(ExecMode::Block),
        "block-stepped run diverged from single-step under perturbed params"
    );
}
