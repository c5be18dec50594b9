//! E3 — correctness of virtualized counts under context switches,
//! migration, and counter overflow.
//!
//! Known-count kernels give arithmetic ground truth; every scenario must
//! report the *exact* expected instruction count on every thread, and the
//! wall-clock (rdtsc) comparison shows why unvirtualized measurement is
//! useless under time sharing.

use analysis::Table;
use limit::harness::SessionBuilder;
use limit::{CounterReader, LimitReader};
use sim_core::SimResult;
use sim_cpu::{EventKind, MachineConfig, PmuConfig, Reg};
use sim_os::KernelConfig;
use std::fmt::Write as _;
use workloads::kernels;

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// Ground-truth instruction count per thread.
    pub expected: u64,
    /// Minimum measured count across threads.
    pub measured_min: u64,
    /// Maximum measured count across threads.
    pub measured_max: u64,
    /// Context switches during the run.
    pub switches: u64,
    /// Migrations during the run.
    pub migrations: u64,
    /// Overflow interrupts during the run.
    pub pmis: u64,
}

impl E3Row {
    /// Whether every thread measured exactly the expected count.
    pub fn exact(&self) -> bool {
        self.measured_min == self.expected && self.measured_max == self.expected
    }
}

fn scenario(
    name: &'static str,
    threads: usize,
    cores: usize,
    quantum: u64,
    counter_bits: u32,
    iters: u64,
) -> SimResult<E3Row> {
    let events = [EventKind::Instructions];
    let reader = LimitReader::with_events(events.to_vec());
    let mut b = SessionBuilder::new(cores)
        .events(&events)
        .machine_config(MachineConfig::new(cores).with_pmu(PmuConfig {
            counter_bits,
            ..Default::default()
        }))
        .kernel_config(KernelConfig {
            quantum,
            ..Default::default()
        });
    let mut asm = b.asm();
    asm.export("main");
    reader.emit_thread_setup(&mut asm);
    let counts = kernels::emit_counted_loop(&mut asm, iters, 40);
    asm.halt();
    let mut s = b.build(asm)?;
    let tids: Vec<_> = (0..threads)
        .map(|_| s.spawn_instrumented("main", &[]))
        .collect::<SimResult<_>>()?;
    let report = s.run()?;
    // Counted after the open returns: the loop + halt.
    let expected = counts.instructions + 1;
    let measured: Vec<u64> = tids
        .iter()
        .map(|&t| s.counter_total(t, 0))
        .collect::<SimResult<_>>()?;
    Ok(E3Row {
        scenario: name,
        expected,
        measured_min: measured.iter().copied().min().unwrap(),
        measured_max: measured.iter().copied().max().unwrap(),
        switches: report.context_switches,
        migrations: report.migrations,
        pmis: report.pmis,
    })
}

/// Runs the four virtualization scenarios.
pub fn run() -> SimResult<Vec<E3Row>> {
    Ok(vec![
        scenario("solo", 1, 1, 2_500_000, 48, 2_000)?,
        scenario("preempted 4x1core", 4, 1, 8_000, 48, 2_000)?,
        // 5 threads on 4 cores: the odd ratio rotates placement, forcing
        // cross-core migrations.
        scenario("migrating 5x4core", 5, 4, 8_000, 48, 2_000)?,
        // Solo with a long quantum: nothing folds the counter before it
        // wraps, so overflow PMIs must carry the count.
        scenario("overflow (14-bit, solo)", 1, 1, 2_500_000, 14, 2_000)?,
        // Both at once: preemption folds race with overflow folds.
        scenario("overflow + preemption (14-bit)", 4, 2, 60_000, 14, 2_000)?,
    ])
}

/// The wall-clock comparison: under 4-way time sharing, the thread's
/// virtualized cycle counter vs. its rdtsc-delta. Returns
/// `(virtualized_cycles, rdtsc_delta)`.
pub fn wallclock_comparison() -> SimResult<(u64, u64)> {
    let events = [EventKind::Cycles];
    let reader = LimitReader::with_events(events.to_vec());
    let mut b = SessionBuilder::new(1)
        .events(&events)
        .kernel_config(KernelConfig {
            quantum: 10_000,
            ..Default::default()
        });
    let mut asm = b.asm();
    asm.export("main");
    reader.emit_thread_setup(&mut asm);
    asm.rdtsc(Reg::R11);
    kernels::emit_counted_loop(&mut asm, 2_000, 40);
    asm.rdtsc(Reg::R12);
    asm.sub(Reg::R12, Reg::R11);
    asm.mov(Reg::R0, Reg::R12);
    asm.syscall(sim_os::syscall::nr::LOG_VALUE);
    asm.halt();
    let mut s = b.build(asm)?;
    let tid = s.spawn_instrumented("main", &[])?;
    for _ in 0..3 {
        s.spawn_instrumented("main", &[])?; // interference
    }
    s.run()?;
    let virt = s.counter_total(tid, 0)?;
    let rdtsc = s.kernel.log()[0];
    Ok((virt, rdtsc))
}

/// Renders the scenario table.
fn table(rows: &[E3Row]) -> Table {
    let mut t = Table::new(
        "E3: virtualized-count exactness (instructions, per thread)",
        &[
            "scenario",
            "expected",
            "min",
            "max",
            "exact",
            "switches",
            "migrations",
            "pmis",
        ],
    );
    for r in rows {
        t.row(&[
            r.scenario.to_string(),
            r.expected.to_string(),
            r.measured_min.to_string(),
            r.measured_max.to_string(),
            if r.exact() { "yes" } else { "NO" }.to_string(),
            r.switches.to_string(),
            r.migrations.to_string(),
            r.pmis.to_string(),
        ]);
    }
    t
}

/// `run e3`: the exactness table and the virtualized-vs-rdtsc comparison.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run().map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    let (virt, rdtsc) = wallclock_comparison().map_err(|e| e.to_string())?;
    let _ = writeln!(w, "virtualized: {virt} cycles; rdtsc: {rdtsc} cycles");
    Ok(w)
}
