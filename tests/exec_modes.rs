//! Cross-interpreter differential tests: every workload must produce a
//! bit-identical simulation under the legacy per-instruction interpreter
//! (`ExecMode::SingleStep`) and the block-stepped fast path
//! (`ExecMode::Block`). The block executor's batched event accrual,
//! local-run units and run-ahead are *optimizations* — any observable
//! difference (kernel run report, retired instruction totals, virtualized
//! counter values, logged or streamed records) is a bug in the fast path,
//! not a tolerance to widen.
//!
//! mysqld runs at two sizes: a small 4-core one and the full 8 threads x
//! 2000 queries on 8 cores with `stat`'s four events. The other workloads
//! run at small configurations.

use limit::harness::SessionBuilder;
use limit::{CounterReader, Instrumenter, LimitReader, LogMode, RegionRecord, StreamConfig};
use sim_core::ThreadId;
use sim_cpu::{AluOp, Cond, EventKind, MachineConfig, PmuConfig, Reg};
use sim_os::{ExecMode, KernelConfig, RunReport};
use telemetry::{Collector, Snapshot};
use workloads::{apache, firefox, memcached, mysqld};

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

fn kcfg(exec: ExecMode) -> KernelConfig {
    KernelConfig {
        exec,
        ..KernelConfig::default()
    }
}

/// Everything observable from one run, gathered for exact comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    report: RunReport,
    total_retired: u64,
    /// Per-thread virtualized counter totals, in spawn order.
    counters: Vec<Vec<u64>>,
}

fn observe(session: &limit::harness::Session, report: RunReport) -> Observed {
    let counters = session
        .spawned_tids()
        .into_iter()
        .map(|tid| {
            (0..session.events().len())
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

fn assert_identical(name: &str, single: &Observed, block: &Observed) {
    assert_eq!(
        single, block,
        "{name}: block-stepped run diverged from single-step"
    );
}

#[test]
fn mysqld_is_identical_across_exec_modes() {
    for (queries, cores, events) in [(40, 4, &EVENTS[..]), (2000, 8, &STAT_EVENTS[..])] {
        let cfg = mysqld::MysqlConfig {
            queries_per_thread: queries,
            ..Default::default()
        };
        let reader = LimitReader::with_events(events.to_vec());
        let run = |exec| {
            let r = mysqld::run(&cfg, &reader, cores, events, kcfg(exec)).unwrap();
            observe(&r.session, r.report)
        };
        assert_identical(
            &format!("mysqld {}x{queries} on {cores} cores", cfg.threads),
            &run(ExecMode::SingleStep),
            &run(ExecMode::Block),
        );
    }
}

#[test]
fn memcached_is_identical_across_exec_modes() {
    let cfg = memcached::MemcachedConfig {
        ops_per_worker: 300,
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let r = memcached::run(&cfg, &reader, 4, &EVENTS, kcfg(exec)).unwrap();
        observe(&r.session, r.report)
    };
    assert_identical(
        "memcached",
        &run(ExecMode::SingleStep),
        &run(ExecMode::Block),
    );
}

#[test]
fn apache_is_identical_across_exec_modes() {
    let cfg = apache::ApacheConfig::default();
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let r = apache::run(&cfg, &reader, 4, &EVENTS, kcfg(exec)).unwrap();
        observe(&r.session, r.report)
    };
    assert_identical("apache", &run(ExecMode::SingleStep), &run(ExecMode::Block));
}

#[test]
fn firefox_is_identical_across_exec_modes() {
    let cfg = firefox::FirefoxConfig::default();
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let r = firefox::run(&cfg, &reader, 4, &EVENTS, kcfg(exec)).unwrap();
        observe(&r.session, r.report)
    };
    assert_identical("firefox", &run(ExecMode::SingleStep), &run(ExecMode::Block));
}

/// One drained telemetry record: (thread, region word, counter deltas).
type Record = (ThreadId, u64, Vec<u64>);

#[test]
fn mysqld_stream_telemetry_is_identical_across_exec_modes() {
    // The monitor path: LiMiT exits append to per-thread rings that a
    // periodic kernel hook drains mid-run, so the drained records and every
    // snapshot depend on the exact cycle each ring write lands.
    let cfg = mysqld::MysqlConfig {
        queries_per_thread: 40,
        mode: LogMode::Stream(StreamConfig::dropping(64)),
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = |exec| {
        let (mut s, _) = mysqld::build(&cfg, &reader, 4, &EVENTS, kcfg(exec)).unwrap();
        let mut collector = Collector::new(cfg.threads, EVENTS.len());
        collector.attach(&s);
        let mut records: Vec<Record> = Vec::new();
        let mut snapshots: Vec<Snapshot> = Vec::new();
        let report = {
            let regions = &s.regions;
            let (collector, records, snapshots) = (&mut collector, &mut records, &mut snapshots);
            s.kernel
                .run_with_hook(20_000, |m, now| {
                    collector.drain_with(m, |tid, region, deltas| {
                        records.push((tid, region, deltas.to_vec()))
                    })?;
                    let seq = snapshots.len() as u64 + 1;
                    snapshots.push(collector.snapshot(seq, now, regions));
                    Ok(())
                })
                .unwrap()
        };
        collector
            .drain_with(&mut s.kernel.machine, |tid, region, deltas| {
                records.push((tid, region, deltas.to_vec()))
            })
            .unwrap();
        let cycle = s.kernel.machine.global_clock();
        snapshots.push(collector.snapshot(snapshots.len() as u64 + 1, cycle, &s.regions));
        assert!(snapshots.len() >= 3 && !records.is_empty());
        (observe(&s, report), records, snapshots)
    };
    let single = run(ExecMode::SingleStep);
    let block = run(ExecMode::Block);
    assert_identical("mysqld-stream", &single.0, &block.0);
    assert!(
        single.1 == block.1,
        "mysqld-stream: drained records diverged"
    );
    assert_eq!(single.2, block.2, "mysqld-stream: snapshots diverged");
}

/// Three threads on two cores run a LiMiT-instrumented loop whose body
/// mixes straight-line ALU runs, a burst, a store, counter reads and
/// branches. With `bits`-wide counters the armed counters overflow every
/// few hundred events, so overflows land inside local runs, inside LiMiT
/// read sequences and at run edges — folded by the kernel's PMI handler,
/// or spilled by the hardware when `spill` enables self-virtualizing
/// counters. Returns everything observable, the logged region records,
/// and each thread's stored running sum of counter reads.
fn instrumented_loop(
    bits: u32,
    spill: bool,
    exec: ExecMode,
) -> (Observed, Vec<(ThreadId, RegionRecord)>, Vec<u64>) {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let ins = Instrumenter::new(&reader);
    let mut layout = sim_cpu::MemLayout::default();
    let out = layout.alloc(3 * 8, 64);
    let pmu = PmuConfig {
        counter_bits: bits,
        ext_self_virtualizing: spill,
        ..Default::default()
    };
    let mut b = SessionBuilder::new(2)
        .events(&EVENTS)
        .with_layout(layout)
        .machine_config(MachineConfig::new(2).with_pmu(pmu))
        .kernel_config(KernelConfig {
            quantum: 5_000,
            ..kcfg(exec)
        });
    let mut asm = b.asm();
    asm.export("main");
    asm.mov(Reg::R13, Reg::R1);
    reader.emit_thread_setup(&mut asm);
    asm.imm(Reg::R9, 300);
    asm.imm(Reg::R10, 0);
    asm.imm(Reg::R12, 0);
    let top = asm.new_label();
    let skip = asm.new_label();
    asm.bind(top);
    ins.emit_enter(&mut asm);
    asm.alui_add(Reg::R1, 7);
    asm.mov(Reg::R2, Reg::R1);
    asm.alui(AluOp::Mul, Reg::R2, 3);
    asm.alu(AluOp::Xor, Reg::R3, Reg::R2);
    asm.burst(9);
    asm.alui(AluOp::And, Reg::R3, 15);
    asm.br(Cond::Lt, Reg::R3, Reg::R9, skip);
    asm.alui_add(Reg::R8, 1);
    asm.nop();
    asm.bind(skip);
    reader.emit_read(&mut asm, 1, Reg::R4, Reg::R5);
    asm.add(Reg::R12, Reg::R4);
    asm.store(Reg::R12, Reg::R13, 0);
    asm.imm(Reg::R11, 5);
    asm.alui_sub(Reg::R11, 1);
    ins.emit_exit(&mut asm, 0);
    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R10, top);
    asm.halt();
    let mut s = b.build(asm).unwrap();
    for i in 0..3 {
        s.spawn_instrumented("main", &[out + 8 * i]).unwrap();
    }
    let report = s.run().unwrap();
    let sums = (0..3).map(|i| s.read_u64(out + 8 * i).unwrap()).collect();
    (observe(&s, report), s.all_records().unwrap(), sums)
}

#[test]
fn narrow_counter_folds_are_identical_across_exec_modes() {
    for bits in [8, 10, 12] {
        let single = instrumented_loop(bits, false, ExecMode::SingleStep);
        let block = instrumented_loop(bits, false, ExecMode::Block);
        assert!(
            single.0.report.pmis > 0,
            "{bits}-bit counters never overflowed"
        );
        assert_eq!(single, block, "{bits}-bit PMI folds diverged");
    }
}

#[test]
fn self_virtualizing_spills_are_identical_across_exec_modes() {
    for bits in [8, 10, 12] {
        let single = instrumented_loop(bits, true, ExecMode::SingleStep);
        let block = instrumented_loop(bits, true, ExecMode::Block);
        assert_eq!(single, block, "{bits}-bit spills diverged");
    }
}
