//! The event-trust matrix: every event × access method × disturbance.
//!
//! The core torture harness ([`crate::run_arm`]) proves one access path —
//! the LiMiT rdpmc sequence counting instructions — exact under injected
//! disturbances. This module sweeps the same differential oracle across
//! the full cross-product of:
//!
//! * **event kind** — all of [`EventKind::ALL`], not just instructions;
//! * **access method** — the LiMiT rdpmc read with and without the kernel
//!   restart fix-up, the `perf_read` syscall path, the PAPI shim, and the
//!   PMI-driven sampling baseline;
//! * **disturbance class** — none, preemption, PMI, cross-core migration,
//!   and a forced self-virtualizing spill, landed at exact instruction
//!   boundaries via [`sim_os::inject`];
//! * **workload shape** — a compute-only burst loop and a memory/branch
//!   mix that makes every one of the 13 event kinds fire each iteration
//!   (without the mix, a disturbance can land while e.g. the llc-miss
//!   counter's live value is still zero and the E4 race stays invisible).
//!
//! Each cell runs a deterministic batch of seeded schedules and emits a
//! [`Verdict`]:
//!
//! * **exact** — the oracle checked every completed read sequence and saw
//!   zero divergences. Claimed only by the rdpmc paths, where the read
//!   value has an exact ground truth at a precise instruction boundary.
//! * **bounded-error(ε)** — syscall and sampling reads have no
//!   instruction-precise ground truth (the kernel reconciles mid-syscall;
//!   samples attribute whole periods), so the oracle checks them against
//!   a per-method error bound and reports the worst error actually
//!   measured. `perf`/`papi` claim ε ≤ [`SYSCALL_EPSILON`]; sampling's
//!   bound is `period + samples × skid` (see [`sample_skid`]).
//! * **unreliable** — divergences on a path that claims exactness, or
//!   measured error above the claimed bound. `rdpmc-nofixup` under
//!   migrate/PMI is *expected* to land here: that is the per-event
//!   rediscovery of the E4 restart race.
//!
//! Everything is a pure function of [`MatrixConfig`]; reports are
//! byte-identical regardless of worker count (`run_matrix` preserves cell
//! order and nothing in a report depends on wall clock).

use baselines::{PapiReader, PerfReader, SamplingSetup};
use limit::harness::{Session, SessionBuilder};
use limit::reader::{CounterReader, LimitReader};
use sim_core::{parallel, DetRng, SimError, SimResult, ThreadId};
use sim_cpu::{AluOp, Cond, EventKind, MachineConfig, Reg};
use sim_mem::{CacheConfig, HierarchyConfig, TlbConfig};
use sim_os::inject::{InjectAction, Injection};
use sim_os::KernelConfig;

use crate::MAX_EXTRA_INJECTIONS;

/// Error bound (events) claimed for the syscall counting paths
/// (`perf_read`, PAPI). The syscall instruction itself retires in user
/// mode and flushes to the ledger before kernel dispatch, so the kernel's
/// reconciled value should agree exactly; the bound leaves room for the
/// reader's own address-calculation instructions on event kinds they
/// perturb (loads, branches) without letting a lost-fold bug hide.
pub const SYSCALL_EPSILON: u64 = 8;

/// Sampling period for the sampling-method cells. Small enough that a
/// short guest still accumulates a statistically useful sample count.
pub const SAMPLING_PERIOD: u64 = 128;

/// Name prefix for the pure-anchor ranges wrapped around non-rdpmc read
/// sites. The harness only registers `limit_read.*` ranges with the
/// kernel, so these never get restart fix-up — they exist so injection
/// schedules can target the same "mid-read-sequence" boundaries the
/// rdpmc cells sweep.
const PROBE_PREFIX: &str = "probe.";

/// Per-sample attribution skid (events) granted to the sampling
/// estimator. Cycle-denominated events accrue in large per-instruction
/// steps (a single load can charge hundreds of stall cycles), so the
/// whole-period attribution error per sample is far larger than for
/// unit-step events.
pub fn sample_skid(event: EventKind) -> u64 {
    match event {
        EventKind::Cycles | EventKind::MemStallCycles => 512,
        _ => 4,
    }
}

/// How the guest reads (or arms) its counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMethod {
    /// LiMiT 3-instruction rdpmc sequence, kernel restart fix-up on.
    RdpmcFixup,
    /// Same sequence with the fix-up disabled — the E4 race reintroduced.
    RdpmcNoFixup,
    /// `perf_read` syscall counting.
    PerfRead,
    /// PAPI shim: syscall read plus library overhead.
    Papi,
    /// PMI-driven sampling; counts are estimated post-run.
    Sampling,
}

impl AccessMethod {
    pub const ALL: [AccessMethod; 5] = [
        AccessMethod::RdpmcFixup,
        AccessMethod::RdpmcNoFixup,
        AccessMethod::PerfRead,
        AccessMethod::Papi,
        AccessMethod::Sampling,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AccessMethod::RdpmcFixup => "rdpmc-fixup",
            AccessMethod::RdpmcNoFixup => "rdpmc-nofixup",
            AccessMethod::PerfRead => "perf",
            AccessMethod::Papi => "papi",
            AccessMethod::Sampling => "sampling",
        }
    }

    pub fn parse(s: &str) -> Option<AccessMethod> {
        AccessMethod::ALL.into_iter().find(|m| m.name() == s)
    }

    fn is_rdpmc(self) -> bool {
        matches!(self, AccessMethod::RdpmcFixup | AccessMethod::RdpmcNoFixup)
    }

    /// Whether the kernel restart fix-up is enabled for this method's
    /// sessions. Irrelevant for non-rdpmc methods (they have no
    /// registered restart ranges) but kept on to match production config.
    fn fixup(self) -> bool {
        !matches!(self, AccessMethod::RdpmcNoFixup)
    }
}

/// Disturbance class injected into a cell's schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disturb {
    /// Undisturbed control run.
    None,
    Preempt,
    Pmi,
    Migrate,
    Spill,
}

impl Disturb {
    pub const ALL: [Disturb; 5] = [
        Disturb::None,
        Disturb::Preempt,
        Disturb::Pmi,
        Disturb::Migrate,
        Disturb::Spill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Disturb::None => "none",
            Disturb::Preempt => "preempt",
            Disturb::Pmi => "pmi",
            Disturb::Migrate => "migrate",
            Disturb::Spill => "spill",
        }
    }

    pub fn parse(s: &str) -> Option<Disturb> {
        Disturb::ALL.into_iter().find(|d| d.name() == s)
    }

    fn action(self) -> Option<InjectAction> {
        match self {
            Disturb::None => None,
            Disturb::Preempt => Some(InjectAction::Preempt),
            Disturb::Pmi => Some(InjectAction::Pmi),
            Disturb::Migrate => Some(InjectAction::Migrate),
            Disturb::Spill => Some(InjectAction::Spill),
        }
    }
}

/// Guest workload shape. Every cell runs both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Compute-only burst loop (the core torture guest's shape).
    Burst,
    /// Memory/branch mix that fires all 13 event kinds every iteration.
    Mixed,
}

impl Shape {
    pub const ALL: [Shape; 2] = [Shape::Burst, Shape::Mixed];
}

/// One cell of the trust matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub event: EventKind,
    pub method: AccessMethod,
    pub disturb: Disturb,
}

/// Trust classification for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Exact,
    BoundedError { bound: u64, measured: u64 },
    Unreliable { divergences: u64, measured: u64 },
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Exact => "exact",
            Verdict::BoundedError { .. } => "bounded-error",
            Verdict::Unreliable { .. } => "unreliable",
        }
    }

    /// Compact cell rendering for the stdout grid.
    pub fn render(&self) -> String {
        match self {
            Verdict::Exact => "exact".to_string(),
            Verdict::BoundedError { bound, measured } => {
                format!("ok(e{measured}<={bound})")
            }
            Verdict::Unreliable {
                divergences,
                measured,
            } => format!("UNRELIABLE({divergences}/{measured})"),
        }
    }
}

/// Aggregated result of one cell's schedule batch (both shapes).
#[derive(Debug, Clone)]
pub struct CellReport {
    pub cell: Cell,
    /// Schedules actually run (both shapes summed).
    pub schedules: u64,
    /// Exactness checks completed by the oracle (rdpmc paths).
    pub checks: u64,
    /// Bounded-error checks completed (syscall + sampling paths).
    pub bounded_checks: u64,
    /// Injections that actually fired.
    pub fired: u64,
    /// Oracle divergences (exactness violations).
    pub divergences: u64,
    /// Claimed error bound for bounded paths (0 for rdpmc).
    pub bound: u64,
    /// Worst absolute error measured on bounded paths.
    pub measured: u64,
    pub verdict: Verdict,
}

/// Trust-matrix parameters. Reports are a pure function of this struct.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Master seed shared by every cell's schedule batch.
    pub seed: u64,
    /// Schedules per (cell, shape) for disturbed cells; `Disturb::None`
    /// cells run exactly one schedule per shape.
    pub schedules: u64,
    pub threads: usize,
    pub cores: usize,
    /// Counter-read sites executed per thread (spread over the guest
    /// loop's 4 call sites, like [`crate::TortureConfig::reads`]).
    pub reads: u32,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            seed: 7,
            schedules: 500,
            threads: 2,
            cores: 2,
            reads: 40,
        }
    }
}

impl MatrixConfig {
    fn iters(&self) -> u32 {
        (self.reads / 4).max(1)
    }
}

/// Stride between successive private-buffer accesses in the mixed shape:
/// exactly one page, so every iteration touches a fresh page (compulsory
/// dtlb miss + the whole cache-miss ladder) whose line-0 address aliases
/// into LLC set 0 of [`mixed_hierarchy`]'s 64-set LLC — the eviction
/// pressure that keeps knocking the shared line out of the LLC so the
/// other thread's next load must forward it cache-to-cache (remote hit).
const STRIDE: u64 = 4096;

/// Memory hierarchy for the mixed shape. The default hierarchy never
/// produces remote hits for a simple two-thread ping-pong (a coherent
/// write re-inserts the line into the big LLC, so the other side always
/// finds it there) and has no TLB at all. This one enables the TLB and
/// shrinks the LLC to one way per set, so each thread's per-iteration
/// page-stride insertion evicts the shared line while the last writer
/// still holds it privately.
fn mixed_hierarchy() -> HierarchyConfig {
    HierarchyConfig {
        llc: CacheConfig::kib(4, 1),
        tlb: Some(TlbConfig::default()),
        ..HierarchyConfig::default()
    }
}

fn reader_for(event: EventKind, method: AccessMethod) -> Box<dyn CounterReader> {
    match method {
        AccessMethod::RdpmcFixup | AccessMethod::RdpmcNoFixup => {
            Box::new(LimitReader::with_events(vec![event]))
        }
        AccessMethod::PerfRead => Box::new(PerfReader::with_events(vec![event])),
        AccessMethod::Papi => Box::new(PapiReader::with_events(vec![event])),
        AccessMethod::Sampling => Box::new(SamplingSetup::new(event, SAMPLING_PERIOD)),
    }
}

/// Emits one read site. Non-rdpmc sites get wrapped in a uniquely-named
/// probe range so injection schedules can anchor on their boundaries.
fn emit_site(
    asm: &mut sim_cpu::Asm,
    reader: &dyn CounterReader,
    method: AccessMethod,
    probe: &mut u32,
) {
    if method.is_rdpmc() {
        reader.emit_read(asm, 0, Reg::R4, Reg::R5);
    } else {
        let name = format!("{PROBE_PREFIX}{probe}");
        *probe += 1;
        asm.begin_range(&name);
        reader.emit_read(asm, 0, Reg::R4, Reg::R5);
        asm.end_range(&name);
    }
}

/// Builds the cell's guest session (program assembled, nothing spawned).
fn build_guest(
    cfg: &MatrixConfig,
    event: EventKind,
    method: AccessMethod,
    shape: Shape,
) -> SimResult<Session> {
    let reader = reader_for(event, method);
    let mut b = SessionBuilder::new(cfg.cores)
        .events(&[event])
        .kernel_config(KernelConfig {
            quantum: 1_000_000_000,
            restart_fixup: method.fixup(),
            ..Default::default()
        });
    if shape == Shape::Mixed {
        b = b.machine_config(MachineConfig::new(cfg.cores).with_hierarchy(mixed_hierarchy()));
    }
    let mut asm = b.asm();
    asm.export("main");
    if shape == Shape::Mixed {
        // Spawn extras arrive in r1 (private strided buffer) and r2
        // (shared line); the reader prologue clobbers r0..r3, so park
        // them first. R13 is the branch-toggle bit.
        asm.mov(Reg::R11, Reg::R1);
        asm.mov(Reg::R12, Reg::R2);
        asm.imm(Reg::R13, 0);
    }
    reader.emit_thread_setup(&mut asm);
    asm.imm(Reg::R9, cfg.iters() as u64);
    asm.imm(Reg::R10, 0);
    let mut probe = 0u32;
    let top = asm.new_label();
    asm.bind(top);
    match shape {
        Shape::Burst => {
            for work in [7u32, 5, 9, 3] {
                asm.burst(work);
                emit_site(&mut asm, reader.as_ref(), method, &mut probe);
            }
        }
        Shape::Mixed => {
            // Page-striding load+store: dtlb misses, the l1d/l2/llc miss
            // ladder, and mem-stall cycles, every iteration.
            asm.load(Reg::R6, Reg::R11, 0);
            asm.alui_add(Reg::R6, 3);
            asm.store(Reg::R6, Reg::R11, 0);
            asm.alui_add(Reg::R11, STRIDE);
            emit_site(&mut asm, reader.as_ref(), method, &mut probe);
            // Shared-line ping-pong between threads. The load comes
            // first: after the other thread's store invalidated our copy
            // and our own page-stride insertion evicted the line from the
            // one-way LLC set, the load must forward cache-to-cache from
            // the owner — a remote hit. The store then invalidates the
            // owner's copy (coherence invalidation) and takes ownership
            // for the other side's next round.
            asm.load(Reg::R7, Reg::R12, 8);
            asm.store(Reg::R6, Reg::R12, 0);
            emit_site(&mut asm, reader.as_ref(), method, &mut probe);
            // Atomic RMW on the shared line.
            asm.imm(Reg::R7, 1);
            asm.fetch_add(Reg::R7, Reg::R12, 16);
            emit_site(&mut asm, reader.as_ref(), method, &mut probe);
            // Alternating taken/not-taken branch defeats the predictor.
            asm.alui(AluOp::Xor, Reg::R13, 1);
            let skip = asm.new_label();
            asm.br(Cond::Eq, Reg::R13, Reg::R10, skip);
            asm.burst(2);
            asm.bind(skip);
            asm.burst(3);
            emit_site(&mut asm, reader.as_ref(), method, &mut probe);
        }
    }
    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R10, top);
    asm.halt();
    b.build(asm)
}

fn spawn_guests(s: &mut Session, cfg: &MatrixConfig, shape: Shape) -> SimResult<()> {
    match shape {
        Shape::Burst => {
            for _ in 0..cfg.threads {
                s.spawn_instrumented("main", &[])?;
            }
        }
        Shape::Mixed => {
            // Page-aligned so both the shared line and every strided
            // private line land in LLC set 0 (see [`STRIDE`]).
            let shared = s.alloc(64, 4096);
            for _ in 0..cfg.threads {
                let buf = s.alloc((cfg.iters() as u64 + 2) * STRIDE, 4096);
                s.spawn_instrumented("main", &[buf, shared])?;
            }
        }
    }
    Ok(())
}

/// Injection anchors for the cell: the registered LiMiT restart ranges
/// for rdpmc methods, the probe ranges otherwise. Sorted for determinism
/// (range tables hash by name).
fn anchor_ranges(s: &Session, method: AccessMethod) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = if method.is_rdpmc() {
        s.kernel.limit().ranges().to_vec()
    } else {
        s.kernel
            .machine
            .prog
            .iter_ranges()
            .filter(|(name, _)| name.starts_with(PROBE_PREFIX))
            .map(|(_, r)| r)
            .collect()
    };
    v.sort_unstable();
    v
}

/// Derives schedule `index` for one cell: the (thread × range × offset)
/// cross-product is swept exhaustively across indices, the dynamic hit
/// and up to [`MAX_EXTRA_INJECTIONS`] extras are seeded-random — the same
/// scheme as [`crate::schedule_for`], generalized to ranges of any
/// length (probe ranges span 1..=4 instructions depending on method).
pub fn cell_schedule(
    cfg: &MatrixConfig,
    ranges: &[(u32, u32)],
    action: InjectAction,
    index: u64,
) -> Vec<Injection> {
    assert!(!ranges.is_empty(), "cell has no injection anchors");
    let iters = cfg.iters() as u64;
    let hit_hi = iters.max(2);
    let mut rng = DetRng::new(cfg.seed).split(index);
    let mut c = index as usize;
    let tid = (c % cfg.threads) as u32;
    c /= cfg.threads;
    let (start, end) = ranges[c % ranges.len()];
    c /= ranges.len();
    let len = (end.saturating_sub(start)).max(1);
    let offset = (c % len as usize) as u32;
    let mut schedule = vec![Injection {
        tid: ThreadId::new(tid),
        pc: start + offset,
        hit: rng.range(1, hit_hi) as u32,
        action,
    }];
    for _ in 0..rng.index(MAX_EXTRA_INJECTIONS + 1) {
        let (s0, e0) = ranges[rng.index(ranges.len())];
        let l = (e0.saturating_sub(s0)).max(1);
        schedule.push(Injection {
            tid: ThreadId::new(rng.index(cfg.threads) as u32),
            pc: s0 + rng.index(l as usize) as u32,
            hit: rng.range(1, hit_hi) as u32,
            action,
        });
    }
    schedule
}

struct ShapeOutcome {
    checks: u64,
    bounded_checks: u64,
    fired: u64,
    divergences: u64,
    measured: u64,
    bound: u64,
}

fn run_cell_schedule(
    cfg: &MatrixConfig,
    cell: Cell,
    shape: Shape,
    injections: &[Injection],
) -> SimResult<ShapeOutcome> {
    let mut s = build_guest(cfg, cell.event, cell.method, shape)?;
    let limit_ranges = s.kernel.limit().ranges().to_vec();
    s.kernel.machine.enable_oracle(&limit_ranges);
    if !injections.is_empty() {
        s.kernel.set_injector(injections);
    }
    spawn_guests(&mut s, cfg, shape)?;
    s.run()?;
    let fired = s.kernel.injector().map_or(0, |i| i.fired);
    let mut bound = match cell.method {
        AccessMethod::PerfRead | AccessMethod::Papi => SYSCALL_EPSILON,
        _ => 0,
    };
    if cell.method == AccessMethod::Sampling {
        // Sampling has no guest-side reads: reconstruct each thread's
        // count as samples × period and check it host-side against the
        // oracle ledger, within period + samples × skid.
        let samples = s.kernel.all_samples();
        let tids = s.spawned_tids();
        let mut errs = Vec::new();
        {
            let o = s.kernel.machine.oracle().expect("oracle enabled");
            for &tid in &tids {
                let n = samples.iter().filter(|smp| smp.tid == tid).count() as u64;
                for fd in 0..64u32 {
                    if let Some((event, baseline)) = o.perf_open_info(tid, fd) {
                        let truth = o.ledger(tid, event).saturating_sub(baseline);
                        errs.push(truth.abs_diff(n * SAMPLING_PERIOD));
                        bound = bound.max(SAMPLING_PERIOD + n * sample_skid(event));
                    }
                }
            }
        }
        let o = s.kernel.machine.oracle_mut().expect("oracle enabled");
        for e in errs {
            o.record_bounded_error(e);
        }
    }
    let o = s.kernel.machine.oracle().expect("oracle enabled");
    Ok(ShapeOutcome {
        checks: o.checks,
        bounded_checks: o.bounded_checks(),
        fired,
        divergences: o.divergences().len() as u64,
        measured: o.max_abs_error(),
        bound,
    })
}

/// Runs one cell's full schedule batch (both shapes) and classifies it.
pub fn run_cell(cfg: &MatrixConfig, cell: Cell) -> SimResult<CellReport> {
    let mut rep = CellReport {
        cell,
        schedules: 0,
        checks: 0,
        bounded_checks: 0,
        fired: 0,
        divergences: 0,
        bound: 0,
        measured: 0,
        verdict: Verdict::Exact,
    };
    for shape in Shape::ALL {
        let ranges = {
            let s = build_guest(cfg, cell.event, cell.method, shape)?;
            anchor_ranges(&s, cell.method)
        };
        let n = match cell.disturb.action() {
            None => 1,
            Some(_) => cfg.schedules,
        };
        for index in 0..n {
            let schedule = match cell.disturb.action() {
                None => Vec::new(),
                Some(action) => cell_schedule(cfg, &ranges, action, index),
            };
            let out = run_cell_schedule(cfg, cell, shape, &schedule)?;
            rep.schedules += 1;
            rep.checks += out.checks;
            rep.bounded_checks += out.bounded_checks;
            rep.fired += out.fired;
            rep.divergences += out.divergences;
            rep.measured = rep.measured.max(out.measured);
            rep.bound = rep.bound.max(out.bound);
        }
    }
    let watched = if cell.method.is_rdpmc() {
        rep.checks
    } else {
        rep.bounded_checks
    };
    if watched == 0 {
        return Err(SimError::Harness(format!(
            "trust cell {}/{}/{} completed no checks",
            cell.event.mnemonic(),
            cell.method.name(),
            cell.disturb.name()
        )));
    }
    rep.verdict = if cell.method.is_rdpmc() {
        if rep.divergences == 0 {
            Verdict::Exact
        } else {
            Verdict::Unreliable {
                divergences: rep.divergences,
                measured: rep.measured,
            }
        }
    } else if rep.measured <= rep.bound {
        Verdict::BoundedError {
            bound: rep.bound,
            measured: rep.measured,
        }
    } else {
        Verdict::Unreliable {
            divergences: rep.divergences,
            measured: rep.measured,
        }
    };
    Ok(rep)
}

/// Enumerates the cells for the given slices, in report order
/// (event-major, then method, then disturbance).
pub fn enumerate_cells(
    events: &[EventKind],
    methods: &[AccessMethod],
    disturbs: &[Disturb],
) -> Vec<Cell> {
    let mut v = Vec::with_capacity(events.len() * methods.len() * disturbs.len());
    for &event in events {
        for &method in methods {
            for &disturb in disturbs {
                v.push(Cell {
                    event,
                    method,
                    disturb,
                });
            }
        }
    }
    v
}

/// Runs every cell, fanning out over `jobs` workers. Report order equals
/// cell order regardless of worker count.
pub fn run_matrix(cfg: &MatrixConfig, cells: &[Cell], jobs: usize) -> SimResult<Vec<CellReport>> {
    parallel::parmap_with(jobs, cells.to_vec(), |cell| run_cell(cfg, cell))
        .into_iter()
        .collect()
}

/// Looks up an event by its mnemonic (the `--events` CLI spelling).
pub fn event_by_mnemonic(s: &str) -> Option<EventKind> {
    EventKind::ALL.into_iter().find(|e| e.mnemonic() == s)
}

/// Renders the fixed-width verdict grid: one row per (event, method),
/// one column per disturbance class present in the reports.
pub fn render_report(reports: &[CellReport]) -> String {
    let disturbs: Vec<Disturb> = Disturb::ALL
        .into_iter()
        .filter(|d| reports.iter().any(|r| r.cell.disturb == *d))
        .collect();
    let mut out = String::new();
    out.push_str(&format!("{:<24} {:<14}", "event", "method"));
    for d in &disturbs {
        out.push_str(&format!(" {:<18}", d.name()));
    }
    out.push('\n');
    let mut keys: Vec<(EventKind, AccessMethod)> = Vec::new();
    for r in reports {
        let k = (r.cell.event, r.cell.method);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    for (event, method) in keys {
        out.push_str(&format!("{:<24} {:<14}", event.mnemonic(), method.name()));
        for d in &disturbs {
            let cell = reports
                .iter()
                .find(|r| r.cell.event == event && r.cell.method == method && r.cell.disturb == *d)
                .map(|r| r.verdict.render())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(" {:<18}", cell));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(schedules: u64) -> MatrixConfig {
        MatrixConfig {
            schedules,
            ..Default::default()
        }
    }

    #[test]
    fn fixup_cells_stay_exact_for_every_event() {
        let cfg = small(6);
        for event in EventKind::ALL {
            for disturb in [Disturb::Preempt, Disturb::Migrate, Disturb::Spill] {
                let rep = run_cell(
                    &cfg,
                    Cell {
                        event,
                        method: AccessMethod::RdpmcFixup,
                        disturb,
                    },
                )
                .unwrap();
                assert!(rep.checks > 0);
                assert!(rep.fired > 0, "{event} {}: nothing fired", disturb.name());
                assert_eq!(
                    rep.verdict,
                    Verdict::Exact,
                    "{event} under {} diverged: {rep:?}",
                    disturb.name()
                );
            }
        }
    }

    /// The per-event rediscovery of the E4 restart race: without the
    /// kernel fix-up, migrations and PMIs inside the read sequence break
    /// every event kind's counter.
    #[test]
    fn nofixup_is_unreliable_under_migrate_and_pmi_for_every_event() {
        let cfg = small(24);
        for event in EventKind::ALL {
            for disturb in [Disturb::Migrate, Disturb::Pmi] {
                let rep = run_cell(
                    &cfg,
                    Cell {
                        event,
                        method: AccessMethod::RdpmcNoFixup,
                        disturb,
                    },
                )
                .unwrap();
                assert!(
                    matches!(rep.verdict, Verdict::Unreliable { .. }),
                    "{event} under {} should diverge without fixup: {rep:?}",
                    disturb.name()
                );
            }
        }
    }

    #[test]
    fn syscall_reads_stay_within_the_claimed_bound() {
        let cfg = small(8);
        for method in [AccessMethod::PerfRead, AccessMethod::Papi] {
            for event in [
                EventKind::Instructions,
                EventKind::Cycles,
                EventKind::LlcMisses,
            ] {
                for disturb in [Disturb::None, Disturb::Preempt, Disturb::Pmi] {
                    let rep = run_cell(
                        &cfg,
                        Cell {
                            event,
                            method,
                            disturb,
                        },
                    )
                    .unwrap();
                    assert!(rep.bounded_checks > 0);
                    assert!(
                        matches!(rep.verdict, Verdict::BoundedError { .. }),
                        "{event}/{}/{}: {rep:?}",
                        method.name(),
                        disturb.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_cells_report_bounded_error() {
        let cfg = small(4);
        for event in [EventKind::Instructions, EventKind::Cycles] {
            for disturb in [Disturb::None, Disturb::Preempt] {
                let rep = run_cell(
                    &cfg,
                    Cell {
                        event,
                        method: AccessMethod::Sampling,
                        disturb,
                    },
                )
                .unwrap();
                assert!(rep.bounded_checks > 0);
                assert!(
                    matches!(rep.verdict, Verdict::BoundedError { .. }),
                    "{event}/{}: {rep:?}",
                    disturb.name()
                );
            }
        }
    }

    #[test]
    fn report_is_deterministic_across_jobs() {
        let cfg = small(4);
        let cells = enumerate_cells(
            &[EventKind::Instructions, EventKind::Loads],
            &[AccessMethod::RdpmcFixup, AccessMethod::PerfRead],
            &[Disturb::None, Disturb::Preempt],
        );
        let one = render_report(&run_matrix(&cfg, &cells, 1).unwrap());
        let four = render_report(&run_matrix(&cfg, &cells, 4).unwrap());
        assert_eq!(one, four);
        assert!(one.contains("exact"));
    }

    #[test]
    fn parse_round_trips() {
        for m in AccessMethod::ALL {
            assert_eq!(AccessMethod::parse(m.name()), Some(m));
        }
        for d in Disturb::ALL {
            assert_eq!(Disturb::parse(d.name()), Some(d));
        }
        for e in EventKind::ALL {
            assert_eq!(event_by_mnemonic(e.mnemonic()), Some(e));
        }
        assert_eq!(AccessMethod::parse("bogus"), None);
    }
}
