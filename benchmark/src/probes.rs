//! Layer floor probes in the style of nanoBench: each times one public
//! entry point on an isolated loop, with nothing else running, so the
//! result is a lower bound on what that layer costs inside a workload.
//! Each probe reports the fastest of [`REPS`] repetitions (a floor is a
//! minimum) and runs well under a second.

use crate::workloads::Values;
use fleet::EVENTS;
use limit::{LimitReader, Session};
use sim_core::{CoreId, SimResult, ThreadId};
use sim_cpu::regs::Context;
use sim_cpu::{
    Asm, Cond, CounterCfg, EventKind, Machine, MachineConfig, Mode, Pmu, PmuConfig, Program, Reg,
    RunLimits,
};
use sim_mem::{HierarchyConfig, HitLevel, MemorySystem};
use sim_os::{ExecMode, KernelConfig};
use std::hint::black_box;
use std::time::Instant;
use workloads::mysqld;

const REPS: usize = 3;

fn min_of<F: FnMut() -> SimResult<f64>>(mut f: F) -> SimResult<f64> {
    (0..REPS).try_fold(f64::INFINITY, |best, _| Ok(best.min(f()?)))
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).max(1_000)
}

/// Six ALU adds and a back-edge: nothing but decode, execute and accrual.
fn alu_loop() -> SimResult<Program> {
    let mut a = Asm::new();
    let top = a.new_label();
    a.bind(top);
    for _ in 0..6 {
        a.alui_add(Reg::R1, 1);
    }
    a.alui_add(Reg::R2, 1);
    a.br(Cond::Ne, Reg::R2, Reg::R0, top);
    a.assemble()
}

/// A machine with one pseudo-thread installed on core 0 at pc 0.
fn alu_machine() -> SimResult<Machine> {
    let cfg = MachineConfig::new(2).with_hierarchy(HierarchyConfig::tiny());
    let mut m = Machine::new(cfg, alu_loop()?)?;
    let core = &mut m.cores[0];
    core.ctx = Context::at(0);
    core.running = Some(ThreadId::new(1));
    core.mode = Mode::User;
    Ok(m)
}

/// `Machine::step`, ns per instruction.
fn step_floor(n: u64) -> SimResult<f64> {
    let mut m = alu_machine()?;
    let t = Instant::now();
    let mut done = 0;
    while done < n {
        done += m.step(CoreId::new(0))?.instrs;
    }
    Ok(t.elapsed().as_nanos() as f64 / done as f64)
}

/// `Machine::run_until`, ns per instruction.
fn run_until_floor(n: u64) -> SimResult<f64> {
    let mut m = alu_machine()?;
    let in_limit = vec![false; m.prog.len()];
    let stop_at = [n, u64::MAX];
    let limits = RunLimits {
        stop_at: &stop_at,
        wake_at: u64::MAX,
        armed_pcs: None,
        in_limit: &in_limit,
    };
    let t = Instant::now();
    m.run_until(&limits)?;
    Ok(t.elapsed().as_nanos() as f64 / m.total_retired().max(1) as f64)
}

/// `Pmu::count` with three subscribed events, ns per call.
fn pmu_count(n: u64) -> SimResult<f64> {
    let events = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::LlcMisses,
    ];
    let mut pmu = Pmu::new(PmuConfig::default())?;
    for (slot, e) in events.iter().enumerate() {
        pmu.configure(slot as u8, CounterCfg::user(*e))?;
    }
    let t = Instant::now();
    for i in 0..n {
        pmu.count(black_box(events[(i % 3) as usize]), 1, Mode::User, 0);
    }
    black_box(&pmu);
    Ok(t.elapsed().as_nanos() as f64 / n as f64)
}

/// `MemorySystem::access`, ns per access, over `addr(i)`; fails unless
/// nearly every access is serviced at `want`.
fn mem_access(n: u64, want: HitLevel, addr: impl Fn(u64) -> u64) -> SimResult<f64> {
    let mut mem = MemorySystem::new(1, HierarchyConfig::default())?;
    let mut now = 0;
    let mut hits = 0u64;
    let t = Instant::now();
    for i in 0..n {
        let a = mem.access(CoreId::new(0), addr(i), false, now);
        now += a.latency;
        hits += u64::from(a.level == want);
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    if hits * 10 < n * 9 {
        return Err(sim_core::SimError::Harness(format!(
            "memory probe: only {hits}/{n} accesses at {want:?}"
        )));
    }
    Ok(ns)
}

/// Reduced-scale mysqld (8 threads, per-event log) under `exec`,
/// optionally with the flight recorder on: (seconds, instructions,
/// flight events, report).
fn mysqld_run(
    queries: u64,
    exec: ExecMode,
    flight: bool,
) -> SimResult<(f64, u64, u64, sim_os::RunReport)> {
    let cfg = mysqld::MysqlConfig {
        queries_per_thread: queries,
        ..Default::default()
    };
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let kernel = KernelConfig {
        exec,
        ..Default::default()
    };
    let (mut s, _): (Session, _) = mysqld::build(&cfg, &reader, cfg.threads, &EVENTS, kernel)?;
    if flight {
        s.enable_flight(flight::FlightConfig::default());
    }
    let t = Instant::now();
    let report = s.run()?;
    let secs = t.elapsed().as_secs_f64();
    let events = s.kernel.machine.flight().map_or(0, |f| f.total_recorded());
    Ok((secs, s.kernel.machine.total_retired(), events, report))
}

/// Runs every probe; `scale` shrinks the loops for smoke runs.
pub fn run(scale: f64) -> SimResult<Values> {
    let n = scaled(5_000_000, scale);
    let queries = ((300.0 * scale) as u64).max(5);
    let step = min_of(|| step_floor(n))?;
    let run_until = min_of(|| run_until_floor(n))?;
    let pmu = min_of(|| pmu_count(4 * n))?;
    // 8 lines that stay in L1; a page-plus-a-line stride over 1 GiB that
    // misses every cache level.
    let l1 = min_of(|| mem_access(n / 2, HitLevel::L1, |i| (i % 8) * 64))?;
    let llc = min_of(|| mem_access(n / 10, HitLevel::Dram, |i| (i * 4160) % (1 << 30)))?;

    let mut block = Vec::new();
    let mut single = Vec::new();
    let mut flight = Vec::new();
    let mut flight_events = 0;
    for _ in 0..REPS {
        let b = mysqld_run(queries, ExecMode::Block, false)?;
        let s = mysqld_run(queries, ExecMode::SingleStep, false)?;
        let f = mysqld_run(queries, ExecMode::SingleStep, true)?;
        if b.1 != s.1 || b.3 != s.3 || f.1 != s.1 {
            return Err(sim_core::SimError::Harness(
                "block and single-step mysqld runs diverged".into(),
            ));
        }
        block.push(b.0 * 1e9 / b.1 as f64);
        single.push(s.0 * 1e9 / s.1 as f64);
        flight.push((f.0 - s.0) * 1e9 / f.2.max(1) as f64);
        flight_events = f.2;
    }
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(Values::from([
        ("sim-cpu.step_floor_ns", step),
        ("sim-cpu.run_until_floor_ns", run_until),
        ("sim-cpu.pmu_count_ns", pmu),
        ("sim-mem.l1_hit_ns", l1),
        ("sim-mem.llc_miss_ns", llc),
        ("sim-cpu.single_step_ns_per_instr", best(&single)),
        ("sim-cpu.block_speedup", best(&single) / best(&block)),
        ("flight.ns_per_event", best(&flight)),
        ("flight.events", flight_events as f64),
    ]))
}
