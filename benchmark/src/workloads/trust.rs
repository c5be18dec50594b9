//! `trust-matrix`: `torture::matrix::run_cell` over all 325 cells,
//! driven by the benchmark's own worker loop (one cell per op).

use super::{digest, Params, Round, Values};
use crate::stats::Latency;
use crate::trace::Tracer;
use baselines::{PapiReader, PerfReader, SamplingSetup};
use limit::{CounterReader, LimitReader, Session, SessionBuilder};
use sim_core::json::Json;
use sim_core::SimResult;
use sim_cpu::{AluOp, Cond, EventKind, MachineConfig, Reg};
use sim_mem::{CacheConfig, HierarchyConfig, TlbConfig};
use sim_os::{InjectAction, KernelConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use torture::matrix::{
    cell_schedule, enumerate_cells, render_report, run_cell, sample_skid, AccessMethod, Cell,
    CellReport, Disturb, MatrixConfig, Shape, Verdict, SAMPLING_PERIOD, SYSCALL_EPSILON,
};

/// Schedules per (cell, shape) at scale 1: about 8 per cell, so a round
/// of all 325 cells takes about 0.2 s on the reference host.
const SCHEDULES: u64 = 4;

fn config(p: &Params) -> MatrixConfig {
    MatrixConfig {
        seed: p.seed,
        schedules: p.scaled(SCHEDULES),
        ..Default::default()
    }
}

pub(super) fn planned_ops() -> u64 {
    (EventKind::ALL.len() * AccessMethod::ALL.len() * Disturb::ALL.len()) as u64
}

fn cells() -> Vec<Cell> {
    enumerate_cells(&EventKind::ALL, &AccessMethod::ALL, &Disturb::ALL)
}

/// One set-up: the cell enumeration that precedes the first run.
pub(super) fn setup(p: &Params) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box((config(p), cells()));
    t0.elapsed().as_secs_f64()
}

/// Runs `f` on every cell from `workers` threads, each taking the next
/// cell when it finishes its last; results come back in cell order.
fn each_cell<T: Send>(workers: usize, cells: &[Cell], f: impl Fn(u32, Cell) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers as u32)
            .map(|w| {
                let (f, next) = (&f, &next);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cell) = cells.get(i) else { break out };
                        out.push((i, f(w + 1, cell)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("trust worker panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|d| d.1).collect()
}

pub(super) fn round(p: &Params, tracer: Option<&Tracer>) -> Result<Round, String> {
    let cfg = config(p);
    let cells = cells();
    let t0 = Instant::now();
    let parent = tracer.map(|t| t.open("torture.round", None));
    let done = each_cell(p.workers, &cells, |worker, cell| {
        let a = Instant::now();
        let r = run_cell(&cfg, cell);
        let b = Instant::now();
        if let Some(t) = tracer {
            t.record("torture.cell", a, b, parent, worker);
        }
        (r, (b - a).as_secs_f64() * 1e3)
    });
    if let (Some(t), Some(parent)) = (tracer, parent) {
        t.close(parent);
    }
    let secs = t0.elapsed().as_secs_f64();
    let latency = Latency::of(done.iter().map(|d| d.1).collect());
    let reports: Vec<CellReport> = done
        .into_iter()
        .map(|d| d.0)
        .collect::<SimResult<_>>()
        .map_err(|e| e.to_string())?;

    let replays = replayed(&cfg, &cells, p.workers).map_err(|e| e.to_string())?;
    let instrs: u64 = replays.iter().map(|r| r.1).sum();
    let sum = |f: fn(&CellReport) -> u64| reports.iter().map(f).sum::<u64>();
    let fingerprint = Json::object()
        .set("cells", reports.len() as u64)
        .set("schedules", sum(|r| r.schedules))
        .set("checks", sum(|r| r.checks))
        .set("bounded_checks", sum(|r| r.bounded_checks))
        .set("fired", sum(|r| r.fired))
        .set("divergences", sum(|r| r.divergences))
        .set("guest_instrs", instrs)
        .set("grid_digest", digest(&render_report(&reports)));
    let name = |c: &Cell| {
        format!(
            "{}/{}/{}",
            c.event.mnemonic(),
            c.method.name(),
            c.disturb.name()
        )
    };
    let violations = reports
        .iter()
        .filter(|r| r.cell.method == AccessMethod::RdpmcFixup && r.verdict != Verdict::Exact)
        .map(|r| format!("rdpmc-fixup cell {} is not exact", name(&r.cell)))
        .chain(
            reports
                .iter()
                .zip(&replays)
                .filter(|(r, replay)| Tally::of(r) != replay.0)
                .map(|(r, _)| {
                    format!(
                        "cell {}: the replayed guest no longer matches torture::matrix",
                        name(&r.cell)
                    )
                }),
        )
        .collect();
    let counts = Values::from([
        ("sim-cpu.guest_instrs", instrs as f64),
        (
            "torture.oracle_checks",
            sum(|r| r.checks + r.bounded_checks) as f64,
        ),
        ("torture.injections_fired", sum(|r| r.fired) as f64),
        ("torture.divergences", sum(|r| r.divergences) as f64),
    ]);
    Ok(Round {
        ops: reports.len() as u64,
        guest_instrs: instrs,
        secs,
        latency,
        fingerprint,
        violations,
        counts,
    })
}

/// Span-derived per-layer metrics of a traced pass.
pub(super) fn layer_times(t: &Tracer, traced: &[&Round], workers: usize) -> Values {
    let schedules: u64 = traced
        .iter()
        .filter_map(|r| r.fingerprint.get("schedules").and_then(Json::as_u64))
        .sum();
    let cell = t.aggregate("torture.cell");
    let round = t.aggregate("torture.round");
    Values::from([
        ("torture.cell_ms_p50", cell.p50_ns() / 1e6),
        (
            "torture.schedules_per_s",
            schedules as f64 / (round.total_ns as f64 / 1e9).max(1e-9),
        ),
        (
            "torture.worker_busy_frac",
            cell.total_ns as f64 / (workers as f64 * round.total_ns as f64).max(1.0),
        ),
    ])
}

// Guest instructions. `CellReport` carries no instruction count and
// `run_cell` keeps its sessions, so the benchmark replays every cell's
// schedule batch on a copy of the matrix guest (`build_guest`,
// `spawn_guests` and `anchor_ranges` in torture/src/matrix.rs) and counts
// what the replay retires, fix-up restarts included. The simulation is
// deterministic, so the replay runs exactly what `run_cell` ran as long
// as the copy matches; each round checks that it does by comparing the
// replay's oracle tally with `run_cell`'s report for every cell.

/// The parts of a cell's outcome the replay must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    schedules: u64,
    checks: u64,
    bounded_checks: u64,
    fired: u64,
    divergences: u64,
    bound: u64,
    measured: u64,
}

impl Tally {
    fn of(r: &CellReport) -> Tally {
        Tally {
            schedules: r.schedules,
            checks: r.checks,
            bounded_checks: r.bounded_checks,
            fired: r.fired,
            divergences: r.divergences,
            bound: r.bound,
            measured: r.measured,
        }
    }
}

/// Every cell's replay (tally, instructions retired), computed once per
/// matrix configuration: rounds repeat the same cells, so only a pass's
/// first round pays for the replay.
fn replayed(cfg: &MatrixConfig, cells: &[Cell], workers: usize) -> SimResult<Vec<(Tally, u64)>> {
    type Cached = ((u64, u64, u32), Vec<(Tally, u64)>);
    static CACHE: Mutex<Option<Cached>> = Mutex::new(None);
    let key = (cfg.seed, cfg.schedules, cfg.reads);
    let mut cache = CACHE.lock().expect("replay cache poisoned");
    if let Some((k, v)) = &*cache {
        if *k == key && v.len() == cells.len() {
            return Ok(v.clone());
        }
    }
    let v = each_cell(workers, cells, |_, cell| replay(cfg, cell))
        .into_iter()
        .collect::<SimResult<Vec<_>>>()?;
    *cache = Some((key, v.clone()));
    Ok(v)
}

/// Replays one cell's schedule batch, both shapes, as `run_cell` runs it.
fn replay(cfg: &MatrixConfig, cell: Cell) -> SimResult<(Tally, u64)> {
    let action = match cell.disturb {
        Disturb::None => None,
        Disturb::Preempt => Some(InjectAction::Preempt),
        Disturb::Pmi => Some(InjectAction::Pmi),
        Disturb::Migrate => Some(InjectAction::Migrate),
        Disturb::Spill => Some(InjectAction::Spill),
    };
    let mut tally = Tally::default();
    let mut retired = 0;
    for shape in Shape::ALL {
        let ranges = anchor_ranges(&build_guest(cfg, cell, shape)?, cell.method);
        let n = action.map_or(1, |_| cfg.schedules.max(1));
        for index in 0..n {
            let schedule = action.map_or_else(Vec::new, |a| cell_schedule(cfg, &ranges, a, index));
            let mut s = build_guest(cfg, cell, shape)?;
            let limit_ranges = s.kernel.limit().ranges().to_vec();
            s.kernel.machine.enable_oracle(&limit_ranges);
            if !schedule.is_empty() {
                s.kernel.set_injector(&schedule);
            }
            spawn_guests(&mut s, cfg, shape)?;
            s.run()?;
            retired += s.kernel.machine.total_retired();
            tally.schedules += 1;
            tally.fired += s.kernel.injector().map_or(0, |i| i.fired);
            let mut bound = match cell.method {
                AccessMethod::PerfRead | AccessMethod::Papi => SYSCALL_EPSILON,
                _ => 0,
            };
            if cell.method == AccessMethod::Sampling {
                let samples = s.kernel.all_samples();
                let mut errs = Vec::new();
                let o = s.kernel.machine.oracle().expect("oracle enabled");
                for tid in s.spawned_tids() {
                    let n = samples.iter().filter(|smp| smp.tid == tid).count() as u64;
                    for fd in 0..64u32 {
                        if let Some((event, baseline)) = o.perf_open_info(tid, fd) {
                            let truth = o.ledger(tid, event).saturating_sub(baseline);
                            errs.push(truth.abs_diff(n * SAMPLING_PERIOD));
                            bound = bound.max(SAMPLING_PERIOD + n * sample_skid(event));
                        }
                    }
                }
                let o = s.kernel.machine.oracle_mut().expect("oracle enabled");
                for e in errs {
                    o.record_bounded_error(e);
                }
            }
            let o = s.kernel.machine.oracle().expect("oracle enabled");
            tally.checks += o.checks;
            tally.bounded_checks += o.bounded_checks();
            tally.divergences += o.divergences().len() as u64;
            tally.measured = tally.measured.max(o.max_abs_error());
            tally.bound = tally.bound.max(bound);
        }
    }
    Ok((tally, retired))
}

/// The matrix's injection anchors: the LiMiT restart ranges for rdpmc
/// reads, the `probe.*` ranges around other reads, sorted.
fn anchor_ranges(s: &Session, method: AccessMethod) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = if is_rdpmc(method) {
        s.kernel.limit().ranges().to_vec()
    } else {
        s.kernel
            .machine
            .prog
            .iter_ranges()
            .filter(|(name, _)| name.starts_with("probe."))
            .map(|(_, r)| r)
            .collect()
    };
    v.sort_unstable();
    v
}

fn is_rdpmc(method: AccessMethod) -> bool {
    matches!(method, AccessMethod::RdpmcFixup | AccessMethod::RdpmcNoFixup)
}

/// The matrix guest of `shape` for `cell`, assembled but not spawned.
fn build_guest(cfg: &MatrixConfig, cell: Cell, shape: Shape) -> SimResult<Session> {
    let (event, method) = (cell.event, cell.method);
    let mixed = shape == Shape::Mixed;
    let reader: Box<dyn CounterReader> = match method {
        AccessMethod::RdpmcFixup | AccessMethod::RdpmcNoFixup => {
            Box::new(LimitReader::with_events(vec![event]))
        }
        AccessMethod::PerfRead => Box::new(PerfReader::with_events(vec![event])),
        AccessMethod::Papi => Box::new(PapiReader::with_events(vec![event])),
        AccessMethod::Sampling => Box::new(SamplingSetup::new(event, SAMPLING_PERIOD)),
    };
    let mut b = SessionBuilder::new(cfg.cores)
        .events(&[event])
        .kernel_config(KernelConfig {
            quantum: 1_000_000_000,
            restart_fixup: method != AccessMethod::RdpmcNoFixup,
            ..Default::default()
        });
    if mixed {
        let hierarchy = HierarchyConfig {
            llc: CacheConfig::kib(4, 1),
            tlb: Some(TlbConfig::default()),
            ..HierarchyConfig::default()
        };
        b = b.machine_config(MachineConfig::new(cfg.cores).with_hierarchy(hierarchy));
    }
    let mut asm = b.asm();
    asm.export("main");
    if mixed {
        asm.mov(Reg::R11, Reg::R1);
        asm.mov(Reg::R12, Reg::R2);
        asm.imm(Reg::R13, 0);
    }
    reader.emit_thread_setup(&mut asm);
    asm.imm(Reg::R9, iters(cfg));
    asm.imm(Reg::R10, 0);
    let mut probe = 0u32;
    let mut site = |asm: &mut sim_cpu::Asm| {
        if is_rdpmc(method) {
            reader.emit_read(asm, 0, Reg::R4, Reg::R5);
        } else {
            let name = format!("probe.{probe}");
            probe += 1;
            asm.begin_range(&name);
            reader.emit_read(asm, 0, Reg::R4, Reg::R5);
            asm.end_range(&name);
        }
    };
    let top = asm.new_label();
    asm.bind(top);
    if mixed {
        asm.load(Reg::R6, Reg::R11, 0);
        asm.alui_add(Reg::R6, 3);
        asm.store(Reg::R6, Reg::R11, 0);
        asm.alui_add(Reg::R11, 4096);
        site(&mut asm);
        asm.load(Reg::R7, Reg::R12, 8);
        asm.store(Reg::R6, Reg::R12, 0);
        site(&mut asm);
        asm.imm(Reg::R7, 1);
        asm.fetch_add(Reg::R7, Reg::R12, 16);
        site(&mut asm);
        asm.alui(AluOp::Xor, Reg::R13, 1);
        let skip = asm.new_label();
        asm.br(Cond::Eq, Reg::R13, Reg::R10, skip);
        asm.burst(2);
        asm.bind(skip);
        asm.burst(3);
        site(&mut asm);
    } else {
        for work in [7u32, 5, 9, 3] {
            asm.burst(work);
            site(&mut asm);
        }
    }
    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R10, top);
    asm.halt();
    b.build(asm)
}

fn iters(cfg: &MatrixConfig) -> u64 {
    u64::from((cfg.reads / 4).max(1))
}

fn spawn_guests(s: &mut Session, cfg: &MatrixConfig, shape: Shape) -> SimResult<()> {
    if shape == Shape::Mixed {
        let shared = s.alloc(64, 4096);
        for _ in 0..cfg.threads {
            let buf = s.alloc((iters(cfg) + 2) * 4096, 4096);
            s.spawn_instrumented("main", &[buf, shared])?;
        }
    } else {
        for _ in 0..cfg.threads {
            s.spawn_instrumented("main", &[])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> Vec<Cell> {
        enumerate_cells(
            &[EventKind::Instructions, EventKind::Cycles],
            &AccessMethod::ALL,
            &[Disturb::None, Disturb::Migrate],
        )
    }

    #[test]
    fn replay_reproduces_run_cell() {
        let cfg = MatrixConfig {
            schedules: 3,
            ..Default::default()
        };
        for cell in slice() {
            let report = run_cell(&cfg, cell).unwrap();
            let (tally, retired) = replay(&cfg, cell).unwrap();
            assert_eq!(tally, Tally::of(&report), "{cell:?}");
            assert!(retired > 0, "{cell:?}");
        }
    }

    #[test]
    fn a_replay_of_another_guest_is_caught() {
        // A copy that drifted (here: two more reads per thread) must not
        // pass the per-cell check.
        let cfg = MatrixConfig {
            schedules: 3,
            ..Default::default()
        };
        let drifted = MatrixConfig {
            reads: cfg.reads + 8,
            ..cfg.clone()
        };
        for cell in slice() {
            let report = run_cell(&cfg, cell).unwrap();
            let (tally, _) = replay(&drifted, cell).unwrap();
            assert_ne!(tally, Tally::of(&report), "{cell:?}");
        }
    }
}
