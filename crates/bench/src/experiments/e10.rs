//! E10 — the paper's three proposed hardware-counter enhancements,
//! implemented in the PMU model and evaluated against stock hardware.
//!
//! 1. **Destructive reads** — a read-and-clear instruction turns a delta
//!    measurement from two 3-instruction reads plus a subtract into one
//!    instruction.
//! 2. **Self-virtualizing counters** — hardware spills overflow into the
//!    user-memory accumulator, eliminating overflow PMIs (and their
//!    kernel cost) entirely.
//! 3. **Tag-filtered counting** — instrumentation code tags itself out of
//!    its own measurements, removing probe self-pollution.

use analysis::Table;
use limit::harness::SessionBuilder;
use limit::{CounterReader, LimitReader};
use sim_core::SimResult;
use sim_cpu::{Cond, EventKind, MachineConfig, MemLayout, PmuConfig, Reg};
use sim_os::syscall::{encode_event, nr};
use sim_os::KernelConfig;
use std::fmt::Write as _;
use workloads::kernels;

/// Enhancement 1 result: cycles per delta measurement.
#[derive(Debug, Clone)]
pub struct DestructiveResult {
    /// Cycles per measurement with the standard read-pair + subtract.
    pub pair_cycles: f64,
    /// Cycles per measurement with one destructive read.
    pub destructive_cycles: f64,
}

/// Enhancement 2 result: one arm of the overflow-handling comparison.
#[derive(Debug, Clone)]
pub struct SelfVirtArm {
    /// Whether the extension was on.
    pub ext_on: bool,
    /// Overflow PMIs delivered.
    pub pmis: u64,
    /// Total run cycles.
    pub total_cycles: u64,
    /// Measured instruction count (must equal `expected`).
    pub measured: u64,
    /// Ground-truth instruction count.
    pub expected: u64,
}

/// Enhancement 3 result.
#[derive(Debug, Clone)]
pub struct TagFilterResult {
    /// Mean measured delta with tag filtering (instrumentation excluded).
    pub tagged_mean: f64,
    /// Mean measured delta without filtering.
    pub untagged_mean: f64,
    /// The true work per region (instructions).
    pub true_work: u64,
}

/// Measures enhancement 1: delta-measurement cost.
pub fn run_destructive(measurements: u64) -> SimResult<DestructiveResult> {
    fn arm(measurements: u64, destructive: bool) -> SimResult<u64> {
        let events = [EventKind::Instructions];
        let reader = LimitReader::with_events(events.to_vec());
        let mut b =
            SessionBuilder::new(1)
                .events(&events)
                .machine_config(MachineConfig::new(1).with_pmu(PmuConfig {
                    ext_destructive_read: destructive,
                    ..Default::default()
                }));
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        asm.imm(Reg::R9, measurements);
        asm.imm(Reg::R10, 0);
        asm.rdtsc(Reg::R12);
        let top = asm.new_label();
        asm.bind(top);
        if destructive {
            asm.burst(50);
            asm.rdpmc_clear(Reg::R4, 0); // delta in one instruction
        } else {
            reader.emit_read(&mut asm, 0, Reg::R6, Reg::R5); // snapshot
            asm.burst(50);
            reader.emit_read(&mut asm, 0, Reg::R4, Reg::R5);
            asm.sub(Reg::R4, Reg::R6); // delta
        }
        asm.alui_sub(Reg::R9, 1);
        asm.br(Cond::Ne, Reg::R9, Reg::R10, top);
        asm.rdtsc(Reg::R13);
        asm.sub(Reg::R13, Reg::R12);
        asm.mov(Reg::R0, Reg::R13);
        asm.syscall(nr::LOG_VALUE);
        asm.halt();
        let mut s = b.build(asm)?;
        s.spawn_instrumented("main", &[])?;
        s.run()?;
        Ok(s.kernel.log()[0])
    }
    let pair = arm(measurements, false)?;
    let destr = arm(measurements, true)?;
    // The burst(50) work is common to both arms; subtracting it isolates
    // measurement cost. burst(50) + loop control ~= 52 cycles/iter.
    let common = 52.0;
    Ok(DestructiveResult {
        pair_cycles: pair as f64 / measurements as f64 - common,
        destructive_cycles: destr as f64 / measurements as f64 - common,
    })
}

/// Measures enhancement 2: overflow handling with narrow (12-bit)
/// counters, stock PMIs vs hardware spill.
pub fn run_self_virtualizing() -> SimResult<(SelfVirtArm, SelfVirtArm)> {
    fn arm(ext_on: bool) -> SimResult<SelfVirtArm> {
        let events = [EventKind::Instructions];
        let reader = LimitReader::with_events(events.to_vec());
        let mut b = SessionBuilder::new(1)
            .events(&events)
            .machine_config(MachineConfig::new(1).with_pmu(PmuConfig {
                counter_bits: 12,
                ext_self_virtualizing: ext_on,
                ..Default::default()
            }))
            .kernel_config(KernelConfig::default());
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        let counts = kernels::emit_counted_loop(&mut asm, 3_000, 40);
        asm.halt();
        let mut s = b.build(asm)?;
        let tid = s.spawn_instrumented("main", &[])?;
        let report = s.run()?;
        Ok(SelfVirtArm {
            ext_on,
            pmis: report.pmis,
            total_cycles: report.total_cycles,
            measured: s.counter_total(tid, 0)?,
            expected: counts.instructions + 1,
        })
    }
    Ok((arm(false)?, arm(true)?))
}

/// Measures enhancement 3: tag-filtered instrumentation self-exclusion.
pub fn run_tag_filter(iterations: u64) -> SimResult<TagFilterResult> {
    fn arm(iterations: u64, tag: u64) -> SimResult<Vec<u64>> {
        let mut layout = MemLayout::default();
        let out = layout.alloc(iterations * 8, 64);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Instructions])
            .with_layout(layout)
            .machine_config(MachineConfig::new(1).with_pmu(PmuConfig {
                ext_tag_filter: true,
                ..Default::default()
            }));
        let mut asm = b.asm();
        asm.export("main");
        asm.mov(Reg::R15, Reg::R0);
        // Open counter 0 on instructions with the requested tag filter.
        asm.imm(Reg::R0, 0);
        asm.imm(Reg::R1, encode_event(EventKind::Instructions));
        asm.mov(Reg::R2, Reg::R15);
        asm.imm(Reg::R3, tag);
        asm.syscall(nr::LIMIT_OPEN);
        asm.imm(Reg::R14, 1); // work tag
        asm.imm(Reg::R13, 2); // instrumentation tag
        asm.imm(Reg::R11, out);
        asm.imm(Reg::R9, iterations);
        asm.imm(Reg::R10, 0);
        asm.set_tag(Reg::R14);
        let top = asm.new_label();
        asm.bind(top);
        // enter (tagged as instrumentation)
        asm.set_tag(Reg::R13);
        asm.begin_range("limit_read.tag_a");
        asm.load(Reg::R6, Reg::R15, 0);
        asm.rdpmc(Reg::R5, 0);
        asm.add(Reg::R6, Reg::R5);
        asm.end_range("limit_read.tag_a");
        asm.set_tag(Reg::R14);
        // the work
        asm.burst(100);
        // exit (tagged as instrumentation)
        asm.set_tag(Reg::R13);
        asm.begin_range("limit_read.tag_b");
        asm.load(Reg::R4, Reg::R15, 0);
        asm.rdpmc(Reg::R5, 0);
        asm.add(Reg::R4, Reg::R5);
        asm.end_range("limit_read.tag_b");
        asm.sub(Reg::R4, Reg::R6);
        asm.store(Reg::R4, Reg::R11, 0);
        asm.alui_add(Reg::R11, 8);
        asm.set_tag(Reg::R14);
        asm.alui_sub(Reg::R9, 1);
        asm.br(Cond::Ne, Reg::R9, Reg::R10, top);
        asm.halt();
        let mut s = b.build(asm)?;
        s.spawn_instrumented("main", &[])?;
        s.run()?;
        (0..iterations).map(|i| s.read_u64(out + i * 8)).collect()
    }
    let tagged = arm(iterations, 1)?;
    let untagged = arm(iterations, 0)?;
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    Ok(TagFilterResult {
        tagged_mean: mean(&tagged),
        untagged_mean: mean(&untagged),
        true_work: 100,
    })
}

/// Renders all three enhancement tables.
fn tables(
    d: &DestructiveResult,
    sv: &(SelfVirtArm, SelfVirtArm),
    t: &TagFilterResult,
) -> Vec<Table> {
    let mut t1 = Table::new(
        "E10.1: delta-measurement cost (cycles, work subtracted)",
        &["mechanism", "cycles/measurement"],
    );
    t1.row(&["read-pair + sub".into(), format!("{:.1}", d.pair_cycles)]);
    t1.row(&[
        "destructive read".into(),
        format!("{:.1}", d.destructive_cycles),
    ]);

    let mut t2 = Table::new(
        "E10.2: overflow handling with 12-bit counters",
        &[
            "hardware",
            "pmis",
            "total cycles",
            "measured",
            "expected",
            "exact",
        ],
    );
    for arm in [&sv.0, &sv.1] {
        t2.row(&[
            if arm.ext_on {
                "self-virtualizing".into()
            } else {
                "stock (kernel PMI)".to_string()
            },
            arm.pmis.to_string(),
            analysis::table::fmt_count(arm.total_cycles),
            arm.measured.to_string(),
            arm.expected.to_string(),
            if arm.measured == arm.expected {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }

    let mut t3 = Table::new(
        "E10.3: tag-filtered counting (region of 100 work instructions)",
        &["counter", "mean measured delta"],
    );
    t3.row(&["untagged".into(), format!("{:.1}", t.untagged_mean)]);
    t3.row(&["tag-filtered".into(), format!("{:.1}", t.tagged_mean)]);

    vec![t1, t2, t3]
}

/// `run e10`: the three enhancement tables and one line on what each
/// enhancement buys.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let d = run_destructive(2_000).map_err(|e| e.to_string())?;
    let sv = run_self_virtualizing().map_err(|e| e.to_string())?;
    let t = run_tag_filter(500).map_err(|e| e.to_string())?;
    for table in tables(&d, &sv, &t) {
        let _ = writeln!(w, "{table}");
    }
    let _ = writeln!(
        w,
        "1) destructive reads cut delta-measurement cost {:.1}x;",
        d.pair_cycles / d.destructive_cycles.max(0.1)
    );
    let _ = writeln!(
        w,
        "2) self-virtualizing counters eliminate all {} overflow PMIs;",
        sv.0.pmis
    );
    let _ = writeln!(
        w,
        "3) tag filtering removes the {:.1}-instruction probe self-pollution \
         (measured {:.1} vs true {}).",
        t.untagged_mean - t.true_work as f64,
        t.tagged_mean,
        t.true_work
    );
    Ok(w)
}
