//! E4 — the read-race ablation: what the restartable-sequence fix-up is
//! for.
//!
//! Threads hammer the LiMiT read sequence while a tiny scheduler quantum
//! and narrow counters generate a preemption + overflow storm. Each read
//! of a per-thread *instruction* counter is stored to a per-thread array;
//! since a thread's own instruction count is strictly non-decreasing, any
//! decrease between consecutive reads is a corrupted read. With the fix-up
//! on, corruption must be zero; with it off, the kernel counts the races
//! it declined to fix and the array shows real corruption.

use analysis::Table;
use baselines::SeqlockReader;
use limit::harness::SessionBuilder;
use limit::{CounterReader, LimitReader};
use sim_core::SimResult;
use sim_cpu::{Cond, EventKind, MachineConfig, MemLayout, PmuConfig, Reg};
use sim_os::KernelConfig;
use std::fmt::Write as _;

/// Outcome of one ablation arm.
#[derive(Debug, Clone)]
pub struct E4Result {
    /// Read protocol ("limit" or "seqlock").
    pub protocol: &'static str,
    /// Whether the kernel fix-up was enabled.
    pub fixup: bool,
    /// Total reads performed across measured threads.
    pub reads: u64,
    /// Monotonicity violations observed in the read streams.
    pub violations: u64,
    /// PC rewinds the kernel performed.
    pub fixups: u64,
    /// Races the kernel observed but (by configuration) did not fix.
    pub unfixed_races: u64,
    /// Overflow interrupts delivered.
    pub pmis: u64,
    /// Involuntary preemptions.
    pub preemptions: u64,
}

/// Runs one arm of the ablation with the LiMiT read protocol.
fn run(fixup: bool) -> SimResult<E4Result> {
    let reader = LimitReader::with_events(vec![EventKind::Instructions]);
    run_with(&reader, fixup)
}

/// Runs one arm with the seqlock read protocol (self-correcting, so the
/// kernel fix-up is left off).
fn run_seqlock() -> SimResult<E4Result> {
    let reader = SeqlockReader::with_events(vec![EventKind::Instructions]);
    run_with(&reader, false)
}

/// Runs one arm of the ablation under the given reader.
fn run_with(reader: &dyn CounterReader, fixup: bool) -> SimResult<E4Result> {
    const THREADS: usize = 4;
    const READS: u64 = 4_000;
    let events = [EventKind::Instructions];

    let mut layout = MemLayout::default();
    let arrays: Vec<u64> = (0..THREADS).map(|_| layout.alloc(READS * 8, 64)).collect();

    let mut b = SessionBuilder::new(2)
        .events(&events)
        .with_layout(layout)
        .machine_config(MachineConfig::new(2).with_pmu(PmuConfig {
            counter_bits: 6, // wrap every 64 instructions -> PMI storm
            ..Default::default()
        }))
        .kernel_config(KernelConfig {
            quantum: 900, // preemption storm
            restart_fixup: fixup,
            ..Default::default()
        });
    let mut asm = b.asm();
    asm.export("main");
    asm.mov(Reg::R11, Reg::R1); // out array (arg), before setup clobbers r1
    reader.emit_thread_setup(&mut asm);
    asm.imm(Reg::R9, READS);
    asm.imm(Reg::R10, 0);
    let top = asm.new_label();
    asm.bind(top);
    reader.emit_read(&mut asm, 0, Reg::R4, Reg::R5);
    asm.store(Reg::R4, Reg::R11, 0);
    asm.alui_add(Reg::R11, 8);
    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R10, top);
    asm.halt();

    let mut s = b.build(asm)?;
    for &arr in &arrays {
        s.spawn_instrumented("main", &[arr])?;
    }
    let report = s.run()?;

    let mut violations = 0u64;
    for &arr in &arrays {
        let mut prev = 0u64;
        for i in 0..READS {
            let v = s.read_u64(arr + i * 8)?;
            if v < prev {
                violations += 1;
            }
            prev = v;
        }
    }
    Ok(E4Result {
        protocol: reader.name(),
        fixup,
        reads: READS * THREADS as u64,
        violations,
        fixups: report.limit_fixups,
        unfixed_races: report.limit_unfixed_races,
        pmis: report.pmis,
        preemptions: report.preemptions,
    })
}

/// Runs both LiMiT arms.
pub fn run_both() -> SimResult<(E4Result, E4Result)> {
    Ok((run(true)?, run(false)?))
}

/// Runs all three arms: LiMiT fix-up on, off, and the seqlock protocol.
fn run_all() -> SimResult<Vec<E4Result>> {
    Ok(vec![run(true)?, run(false)?, run_seqlock()?])
}

/// Renders the ablation table.
fn table(rows: &[E4Result]) -> Table {
    let mut t = Table::new(
        "E4: read-race ablation (preemption + overflow storm)",
        &[
            "protocol",
            "fixup",
            "reads",
            "corrupted",
            "rewinds",
            "unfixed races",
            "pmis",
            "preemptions",
        ],
    );
    for r in rows {
        t.row(&[
            r.protocol.to_string(),
            if r.fixup { "on" } else { "off" }.to_string(),
            r.reads.to_string(),
            r.violations.to_string(),
            r.fixups.to_string(),
            r.unfixed_races.to_string(),
            r.pmis.to_string(),
            r.preemptions.to_string(),
        ]);
    }
    t
}

/// `run e4`: the three-arm ablation table and what each arm shows.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run_all().map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    let (on, off, seq) = (&rows[0], &rows[1], &rows[2]);
    let _ = writeln!(
        w,
        "With the fix-up off, {} of {} reads were corrupted ({} races seen by the kernel).",
        off.violations, off.reads, off.unfixed_races
    );
    let _ = writeln!(
        w,
        "With the fix-up on, {} corrupted reads across {} rewinds.",
        on.violations, on.fixups
    );
    let _ = writeln!(
        w,
        "The seqlock protocol self-corrects in userspace: {} corrupted reads with no \
         kernel fix-up.",
        seq.violations
    );
    Ok(w)
}
