//! Driving a stream-mode session end to end.
//!
//! [`run_streaming`] runs the session under the kernel's periodic drain
//! hook: every `every` cycles the collector drains all rings and the
//! caller's callback is lent the collector's freshly published
//! [`Snapshot`]. After the run a final drain sweeps records still in
//! flight and publishes one last snapshot, so
//! `appended == drained + dropped + overwritten` at the end.
//! [`run_collected`] drains on the same ticks but publishes nothing until
//! the end, for callers that only want the final snapshot, such as fleet
//! instances and what-if arms.

use crate::collector::Collector;
use crate::snapshot::Snapshot;
use limit::report::Regions;
use limit::{Session, WarnSink};
use sim_core::{SimResult, ThreadId};
use sim_os::RunReport;
use std::sync::{Arc, Mutex};

/// The outcome of [`run_collected`].
pub struct CollectedRun {
    /// The kernel's run report, warnings filled in.
    pub report: RunReport,
    /// The final post-run snapshot.
    pub snapshot: Snapshot,
    /// Teardown warnings the session raised, in order.
    pub warnings: Vec<String>,
}

/// Runs the session to completion like [`run_streaming`] with a fresh
/// collector sized for `threads` guest threads, taking one snapshot: the
/// final one. The rings still drain on every tick, so they cannot
/// overflow. Teardown warnings are captured rather than printed, so
/// sessions running side by side never interleave them on stderr.
pub fn run_collected(session: &mut Session, threads: usize, every: u64) -> SimResult<CollectedRun> {
    let warnings = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&warnings);
    session.set_warn_sink(WarnSink::new(move |line: &str| {
        sink.lock()
            .expect("no thread panics while holding the warning list")
            .push(line.to_string());
    }));

    let mut collector = Collector::new(threads.max(1), session.events().len());
    collector.attach(session);
    let mut last = (0, 0);
    let report = run_ticks(session, &mut collector, every, None, |_, seq, cycle, _| {
        last = (seq, cycle);
    })?;

    let snapshot = collector.snapshot(last.0, last.1, &session.regions);
    let warnings = std::mem::take(
        &mut *warnings
            .lock()
            .expect("no thread panics while holding the warning list"),
    );
    Ok(CollectedRun {
        report,
        snapshot,
        warnings,
    })
}

/// Runs the session to completion, draining every `every` cycles and
/// lending each published snapshot (including one final post-run
/// snapshot) to `on_snapshot`.
pub fn run_streaming<F>(
    session: &mut Session,
    collector: &mut Collector,
    every: u64,
    mut on_snapshot: F,
) -> SimResult<RunReport>
where
    F: FnMut(&Snapshot),
{
    run_ticks(session, collector, every, None, |c, seq, cycle, regions| {
        on_snapshot(c.publish(seq, cycle, regions))
    })
}

/// [`run_streaming`], stopping when `tid` exits (background threads may
/// still be live).
pub fn run_streaming_until<F>(
    session: &mut Session,
    collector: &mut Collector,
    every: u64,
    tid: ThreadId,
    mut on_snapshot: F,
) -> SimResult<RunReport>
where
    F: FnMut(&Snapshot),
{
    run_ticks(
        session,
        collector,
        every,
        Some(tid),
        |c, seq, cycle, regions| on_snapshot(c.publish(seq, cycle, regions)),
    )
}

/// The drain loop behind every runner: every `every` cycles, and once more
/// after the run, drains the rings and calls `on_tick(collector, seq,
/// cycle, regions)`.
fn run_ticks<F>(
    session: &mut Session,
    collector: &mut Collector,
    every: u64,
    stop_on_exit: Option<ThreadId>,
    mut on_tick: F,
) -> SimResult<RunReport>
where
    F: FnMut(&mut Collector, u64, u64, &Regions),
{
    let mut seq = 0u64;
    let mut result = {
        let regions = &session.regions;
        let hook = |m: &mut sim_cpu::Machine, now: u64| {
            let records = collector.drain(m)?;
            seq += 1;
            flight_note_tick(m, now, records, seq);
            on_tick(collector, seq, now, regions);
            Ok(())
        };
        match stop_on_exit {
            None => session.kernel.run_with_hook(every, hook),
            Some(tid) => session.kernel.run_until_exit_with_hook(tid, every, hook),
        }
    };
    // Final sweep: records appended after the last tick are still in the
    // rings. This runs even when the run itself errored (e.g. a guest
    // fault) — the rings hold everything the guest emitted up to the
    // fault, and discarding it would make faults undebuggable from the
    // telemetry side. The run's own error still propagates afterwards.
    match collector.drain(&mut session.kernel.machine) {
        Ok(records) => {
            seq += 1;
            let cycle = session.kernel.machine.global_clock();
            flight_note_tick(&mut session.kernel.machine, cycle, records, seq);
            on_tick(collector, seq, cycle, &session.regions);
        }
        Err(drain_err) => {
            // Surface the run's error in preference to the drain's.
            result?;
            return Err(drain_err);
        }
    }
    // Teardown accounting: the streaming path bypasses `Session::run`, so
    // the session would otherwise never fill the report's warnings or
    // surface dropped-record lines (through its `WarnSink`, if installed).
    if let Ok(report) = result.as_mut() {
        session.finalize_report(report);
    }
    result
}

/// Mirrors one collector tick — the drain and the snapshot it publishes —
/// onto the flight recorder's host ring.
fn flight_note_tick(m: &mut sim_cpu::Machine, now: u64, records: u64, seq: u64) {
    if let Some(fl) = m.flight_mut() {
        fl.record_host(now, None, flight::EventData::RingDrain { records });
        fl.record_host(now, None, flight::EventData::SnapshotPublish { seq });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::harness::SessionBuilder;
    use limit::reader::{CounterReader, LimitReader};
    use limit::{Instrumenter, StreamConfig};
    use sim_cpu::EventKind;

    #[test]
    fn streaming_run_drains_everything_with_mid_run_snapshots() {
        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let cfg = StreamConfig::dropping(16);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Cycles])
            .stream(cfg);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for _ in 0..200 {
            ins.emit_enter(&mut asm);
            asm.burst(100);
            ins.emit_exit_stream(&mut asm, 0, cfg);
        }
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.regions.define("work");
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        let mut c = Collector::new(2, 1);
        c.attach(&s);
        let mut snaps: Vec<Snapshot> = Vec::new();
        run_streaming(&mut s, &mut c, 2_000, |snap| snaps.push(snap.clone())).unwrap();
        // Mid-run snapshots happened (not just the final one), and the ring
        // (capacity 16) never had to drop despite 200 appends.
        assert!(snaps.len() >= 3, "only {} snapshots", snaps.len());
        let last = snaps.last().unwrap();
        assert_eq!(last.appended, 200);
        assert_eq!(last.drained, 200);
        assert_eq!(last.dropped, 0);
        assert_eq!(last.in_flight(), 0);
        assert_eq!(s.dropped(tid).unwrap(), 0);
        // A mid-run snapshot saw strictly fewer records than the final one.
        assert!(snaps[0].drained < last.drained);
        let work = last.region("work").unwrap();
        assert_eq!(work.count, 200);
        assert!(work.events[0].mean().unwrap() >= 100.0);
    }

    #[test]
    fn faulting_run_still_publishes_final_snapshot() {
        // Records appended before a guest fault must survive it: the final
        // sweep drains the rings and publishes one last snapshot even
        // though the run itself errors out.
        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let cfg = StreamConfig::dropping(256);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Cycles])
            .stream(cfg);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for _ in 0..50 {
            ins.emit_enter(&mut asm);
            asm.burst(100);
            ins.emit_exit_stream(&mut asm, 0, cfg);
        }
        // Destructive counter read with the extension disabled: faults.
        asm.rdpmc_clear(sim_cpu::Reg::R1, 0);
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.regions.define("work");
        s.spawn_instrumented("main", &[]).unwrap();
        let mut c = Collector::new(2, 1);
        c.attach(&s);
        let mut snaps: Vec<Snapshot> = Vec::new();
        let err =
            run_streaming(&mut s, &mut c, 1_000_000, |snap| snaps.push(snap.clone())).unwrap_err();
        assert_eq!(err.category(), "fault");
        // The drain interval was far beyond the run length, so the final
        // sweep is the only chance to see the 50 pre-fault records.
        let last = snaps.last().expect("final snapshot must be published");
        assert_eq!(last.appended, 50);
        assert_eq!(last.drained, 50);
        assert_eq!(last.in_flight(), 0);
        assert_eq!(last.region("work").unwrap().count, 50);
    }
}
