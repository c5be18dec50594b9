//! Property tests for the collector's incremental view.
//!
//! Several guest threads append random region-exit records and trigger
//! random blocking I/O (whose kernel-emitted wait records ride the same
//! rings); the collector drains on a random subset of the kernel's ticks,
//! and regions are defined both before the run and between drains, after
//! their first records. After every drain the published view, the cloned
//! snapshot, and a snapshot rebuilt from scratch by folding every record
//! drained so far (`drain_with`'s visitor gives the stream) must be equal.

use limit::harness::SessionBuilder;
use limit::reader::{CounterReader, LimitReader};
use limit::report::Regions;
use limit::{Instrumenter, Session, StreamConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use sim_core::Histogram;
use sim_cpu::{EventKind, Reg};
use sim_os::io::{decode_io_region, SLOW_IO_CYCLES};
use sim_os::syscall::nr;
use std::collections::BTreeMap;
use telemetry::{run_collected, run_streaming, Collector, IoStat, RegionSnapshot, Snapshot};

const EVENTS: [EventKind; 2] = [EventKind::Cycles, EventKind::Instructions];

/// Region ids the guest emits; only ids below `REGION_IDS - 1` are ever
/// defined, so the last stays `#id` for the whole run.
const REGION_IDS: u64 = 7;

/// One guest operation: an instrumented region `(id, burst)` that blocks
/// on I/O device `io` inside it when given.
type Op = (u64, u32, Option<usize>);

/// Builds a stream session running one thread per `plans` entry, with the
/// first `predefined` region ids named before the run.
fn build(plans: &[Vec<Op>], cfg: StreamConfig, predefined: u64) -> Session {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let ins = Instrumenter::new(&reader);
    let mut b = SessionBuilder::new(2).events(&EVENTS).stream(cfg);
    let mut asm = b.asm();
    for (t, plan) in plans.iter().enumerate() {
        asm.export(&format!("t{t}"));
        reader.emit_thread_setup(&mut asm);
        for &(region, burst, io) in plan {
            ins.emit_enter(&mut asm);
            asm.burst(burst);
            if let Some(device) = io {
                asm.imm(Reg::R0, device as u64);
                asm.imm(Reg::R1, region);
                asm.syscall(nr::IO_SUBMIT);
            }
            ins.emit_exit_stream(&mut asm, region, cfg);
        }
        asm.halt();
    }
    let mut s = b.build(asm).unwrap();
    for id in 0..predefined {
        s.regions.define(&format!("r{id}"));
    }
    for t in 0..plans.len() {
        s.spawn_instrumented(&format!("t{t}"), &[]).unwrap();
    }
    s
}

/// The from-scratch reference: folds the whole drained stream into fresh
/// rows, names them, and sorts them (descending event-0 sum, then id).
fn rebuild(log: &[(u64, Vec<u64>)], regions: &Regions) -> Vec<RegionSnapshot> {
    let mut rows: BTreeMap<u64, RegionSnapshot> = BTreeMap::new();
    for (word, deltas) in log {
        let (id, io) = match decode_io_region(*word) {
            Some((id, device)) => (id, Some(device)),
            None => (*word, None),
        };
        let row = rows.entry(id).or_insert_with(|| RegionSnapshot {
            id,
            name: String::new(),
            count: 0,
            events: vec![Histogram::new(); EVENTS.len()],
            io: Vec::new(),
        });
        match io {
            None => {
                row.count += 1;
                for (h, &d) in row.events.iter_mut().zip(deltas) {
                    h.record(d);
                }
            }
            Some(device) => {
                if !row.io.iter().any(|s| s.device == device) {
                    row.io.push(IoStat {
                        device,
                        hist: Histogram::new(),
                        slow_calls: 0,
                    });
                    row.io.sort_by_key(|s| s.device);
                }
                let stat = row.io.iter_mut().find(|s| s.device == device).unwrap();
                stat.hist.record(deltas[0]);
                stat.slow_calls += u64::from(deltas[0] > SLOW_IO_CYCLES);
            }
        }
    }
    let mut rows: Vec<RegionSnapshot> = rows.into_values().collect();
    for r in &mut rows {
        r.name = match regions.name(r.id) {
            "?" => format!("#{}", r.id),
            name => name.to_string(),
        };
    }
    rows.sort_by_key(|r| (std::cmp::Reverse(r.event_sum(0)), r.id));
    rows
}

/// Drains `c`, logs what it drained, and checks snapshot == publish ==
/// the from-scratch rebuild.
fn drain_and_check(
    c: &mut Collector,
    m: &mut sim_cpu::Machine,
    log: &mut Vec<(u64, Vec<u64>)>,
    seq: u64,
    cycle: u64,
    regions: &Regions,
) {
    c.drain_with(m, |_, region, deltas| log.push((region, deltas.to_vec())))
        .unwrap();
    let expect = Snapshot {
        seq,
        cycle,
        appended: c.appended(),
        drained: c.drained(),
        dropped: c.dropped(),
        overwritten: c.overwritten(),
        regions: rebuild(log, regions),
    };
    assert_eq!(c.drained(), log.len() as u64);
    let copy = c.snapshot(seq, cycle, regions);
    assert_eq!(
        copy, expect,
        "snapshot() differs from the rebuild at seq {seq}"
    );
    assert_eq!(
        c.publish(seq, cycle, regions),
        &expect,
        "publish() differs from the rebuild at seq {seq}"
    );
    assert_eq!(c.snapshot(seq, cycle, regions), expect);
}

fn op() -> impl Strategy<Value = Op> {
    (
        0..REGION_IDS,
        1u32..400,
        (0u32..8).prop_map(|d| (d < 3).then_some(d as usize)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn view_matches_a_from_scratch_fold_after_every_drain(
        plans in vec(vec(op(), 1..40), 1..4),
        cap_pow in 2u32..7,
        overwrite in any::<bool>(),
        every in 300u64..6_000,
        skips in vec(any::<bool>(), 1..6),
        defines in vec(any::<bool>(), 1..6),
        predefined in 0..REGION_IDS,
    ) {
        let cfg = StreamConfig { capacity: 1 << cap_pow, overwrite };
        let mut s = build(&plans, cfg, predefined);
        let mut c = Collector::new(plans.len(), EVENTS.len());
        c.attach(&s);
        let mut log = Vec::new();
        let mut seq = 0u64;
        let mut tick = 0usize;
        let (kernel, regions) = (&mut s.kernel, &mut s.regions);
        kernel
            .run_with_hook(every, |m, now| {
                tick += 1;
                // Random cadence: some ticks leave the rings alone.
                if skips[tick % skips.len()] {
                    return Ok(());
                }
                // Name the next region between drains, often after its
                // first records have been folded under `#id`.
                if defines[tick % defines.len()] && (regions.len() as u64) < REGION_IDS - 1 {
                    regions.define(&format!("r{}", regions.len()));
                }
                seq += 1;
                drain_and_check(&mut c, m, &mut log, seq, now, regions);
                Ok(())
            })
            .unwrap();
        let cycle = s.kernel.machine.global_clock();
        drain_and_check(&mut c, &mut s.kernel.machine, &mut log, seq + 1, cycle, &s.regions);
        let last = c.publish(seq + 1, cycle, &s.regions);
        prop_assert_eq!(last.in_flight(), 0);
    }

    #[test]
    fn run_collected_ends_where_run_streaming_does(
        plans in vec(vec(op(), 1..30), 1..4),
        every in 300u64..6_000,
        predefined in 0..REGION_IDS,
    ) {
        let cfg = StreamConfig::dropping(16);
        let mut streamed = build(&plans, cfg, predefined);
        let mut c = Collector::new(plans.len(), EVENTS.len());
        c.attach(&streamed);
        let mut last = None;
        run_streaming(&mut streamed, &mut c, every, |snap| last = Some(snap.clone())).unwrap();
        let mut collected = build(&plans, cfg, predefined);
        let run = run_collected(&mut collected, plans.len(), every).unwrap();
        prop_assert_eq!(Some(run.snapshot), last);
    }
}
