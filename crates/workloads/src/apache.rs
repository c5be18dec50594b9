//! An Apache-like web server (supporting case study, experiment E9).
//!
//! Request-per-thread workers, each processing a stream of requests with
//! three phases: **parse** (compute + light branching), **handler**
//! (document lookup: random reads over a large docs region — some requests
//! hit hot documents, some cold) and **log** (a shared access-log mutex +
//! appends). Each phase is an instrumented region and a named PC range, so
//! per-request accounting — the thing syscall-priced probes are too heavy
//! to do — is one LiMiT read pair per phase boundary.

use crate::{locks, prng};
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, Instrumenter, LogMode};
use sim_core::{SimError, SimResult};
use sim_cpu::{AluOp, Asm, Cond, EventKind, MemLayout, Reg};
use sim_os::{KernelConfig, RunReport};

/// Apache-workload parameters.
#[derive(Debug, Clone)]
pub struct ApacheConfig {
    /// Worker threads.
    pub workers: usize,
    /// Requests per worker.
    pub requests_per_worker: u64,
    /// Docs region size in bytes (power of two).
    pub docs_bytes: u64,
    /// Random document reads per request.
    pub reads_per_request: u64,
    /// Parse-phase instructions.
    pub parse_instrs: u32,
    /// Handler compute instructions (beyond the reads).
    pub handler_instrs: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Instrumentation logging mode (see [`LogMode`]); the default
    /// per-event log is what the case-study experiments read.
    pub mode: LogMode,
}

impl Default for ApacheConfig {
    fn default() -> Self {
        ApacheConfig {
            workers: 8,
            requests_per_worker: 100,
            docs_bytes: 8 << 20,
            reads_per_request: 48,
            parse_instrs: 300,
            handler_instrs: 800,
            seed: 0xA9AC,
            mode: LogMode::Log,
        }
    }
}

impl ApacheConfig {
    /// Validates sizes.
    pub fn validate(&self) -> SimResult<()> {
        if !self.docs_bytes.is_power_of_two() {
            return Err(SimError::Config("docs_bytes must be a power of two".into()));
        }
        if self.workers == 0 || self.requests_per_worker == 0 {
            return Err(SimError::Config(
                "workers and requests must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Region ids for the Apache phases.
#[derive(Debug, Clone, Copy)]
pub struct ApacheRegions {
    /// Parse phase.
    pub parse: u64,
    /// Handler phase.
    pub handler: u64,
    /// Log phase (mutex + append).
    pub log: u64,
}

impl ApacheRegions {
    /// `(id, name)` pairs in request order.
    pub fn phases(&self) -> [(u64, &'static str); 3] {
        [
            (self.parse, "parse"),
            (self.handler, "handler"),
            (self.log, "log"),
        ]
    }
}

/// An emitted Apache image.
#[derive(Debug, Clone)]
pub struct ApacheImage {
    /// Worker entry symbol.
    pub entry: &'static str,
    /// Region ids.
    pub regions: ApacheRegions,
    /// The access-log mutex address.
    pub log_lock: u64,
    /// The shared log-cursor address (advances 32 bytes per request).
    pub log_cursor: u64,
    /// The configuration.
    pub cfg: ApacheConfig,
}

/// Emits the worker program.
pub fn emit(
    asm: &mut Asm,
    layout: &mut MemLayout,
    regions: &mut Regions,
    reader: &dyn CounterReader,
    cfg: &ApacheConfig,
) -> SimResult<ApacheImage> {
    cfg.validate()?;
    let docs = layout.alloc(cfg.docs_bytes, 4096);
    let log_lock = layout.alloc(8, 64);
    let log_cursor = layout.alloc(8, 64);
    let log_data = layout.alloc(128 * 1024, 64);

    let r = ApacheRegions {
        parse: regions.define("apache.parse"),
        handler: regions.define("apache.handler"),
        log: regions.define("apache.log"),
    };
    let ins = Instrumenter::new(reader);
    let instrumented = reader.counters() > 0;

    asm.export("apache_worker");
    asm.mov(Reg::R8, Reg::R1); // seed, before setup clobbers r1
    reader.emit_thread_setup(asm);
    asm.imm(Reg::R2, 0);
    asm.imm(Reg::R9, cfg.requests_per_worker);

    let rq_top = asm.new_label();
    asm.bind(rq_top);

    // --- parse ---
    if instrumented {
        ins.emit_enter(asm);
    }
    asm.begin_range("apache.parse");
    asm.burst(cfg.parse_instrs);
    // A few data-dependent branches (header parsing).
    asm.imm(Reg::R12, 6);
    let pt = asm.new_label();
    let podd = asm.new_label();
    let pnext = asm.new_label();
    asm.bind(pt);
    prng::emit_next_below(asm, Reg::R8, Reg::R10, 2);
    asm.br(Cond::Eq, Reg::R10, Reg::R2, podd);
    asm.burst(10);
    asm.jmp(pnext);
    asm.bind(podd);
    asm.burst(14);
    asm.bind(pnext);
    asm.alui_sub(Reg::R12, 1);
    asm.br(Cond::Ne, Reg::R12, Reg::R2, pt);
    asm.end_range("apache.parse");
    if instrumented {
        ins.emit_exit_mode(asm, r.parse, cfg.mode);
    }

    // --- handler ---
    if instrumented {
        ins.emit_enter(asm);
    }
    asm.begin_range("apache.handler");
    asm.burst(cfg.handler_instrs);
    asm.imm(Reg::R12, cfg.reads_per_request);
    let ht = asm.new_label();
    asm.bind(ht);
    prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.docs_bytes);
    asm.alui(AluOp::And, Reg::R10, !7u64);
    asm.imm(Reg::R11, docs);
    asm.add(Reg::R11, Reg::R10);
    asm.load(Reg::R6, Reg::R11, 0);
    asm.alui_sub(Reg::R12, 1);
    asm.br(Cond::Ne, Reg::R12, Reg::R2, ht);
    asm.end_range("apache.handler");
    if instrumented {
        ins.emit_exit_mode(asm, r.handler, cfg.mode);
    }

    // --- log ---
    if instrumented {
        ins.emit_enter(asm);
    }
    asm.begin_range("apache.log");
    asm.imm(Reg::R13, log_lock);
    locks::emit_lock(asm, Reg::R13);
    asm.imm(Reg::R6, 32);
    asm.imm(Reg::R11, log_cursor);
    asm.fetch_add(Reg::R6, Reg::R11, 0);
    asm.alui(AluOp::And, Reg::R6, 128 * 1024 - 1);
    asm.alui(AluOp::And, Reg::R6, !7u64);
    asm.alui_add(Reg::R6, log_data);
    for w in 0..4 {
        asm.store(Reg::R8, Reg::R6, 8 * w);
    }
    locks::emit_unlock(asm, Reg::R13);
    asm.end_range("apache.log");
    if instrumented {
        ins.emit_exit_mode(asm, r.log, cfg.mode);
    }

    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, rq_top);
    asm.halt();

    Ok(ApacheImage {
        entry: "apache_worker",
        regions: r,
        log_lock,
        log_cursor,
        cfg: cfg.clone(),
    })
}

/// A completed Apache run.
#[derive(Debug)]
pub struct ApacheRun {
    /// The finished session.
    pub session: Session,
    /// The emitted image.
    pub image: ApacheImage,
    /// The kernel's run report.
    pub report: RunReport,
}

/// Builds the Apache workload — session configured per `cfg.mode`, all
/// workers spawned — without running it, so the caller can attach a
/// flight recorder or drive the kernel itself (see
/// [`crate::mysqld::build`]).
pub fn build(
    cfg: &ApacheConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<(Session, ApacheImage)> {
    let builder = SessionBuilder::new(cores).kernel_config(kernel_cfg);
    build_on(cfg, reader, builder, events)
}

/// [`build`] on a caller-configured session builder (a full
/// `MachineParams` machine, an explicit interpreter mode): the
/// [`crate::Workload::build`] entry point.
pub(crate) fn build_on(
    cfg: &ApacheConfig,
    reader: &dyn CounterReader,
    builder: SessionBuilder,
    events: &[EventKind],
) -> SimResult<(Session, ApacheImage)> {
    let (mut session, image) =
        crate::assemble(builder, events, cfg.mode, |asm, layout, regions| {
            emit(asm, layout, regions, reader, cfg)
        })?;
    let mut seed = sim_core::DetRng::new(cfg.seed);
    for _ in 0..cfg.workers {
        let s = seed.next_u64();
        session.spawn_instrumented(image.entry, &[s])?;
    }
    Ok((session, image))
}

/// Builds, runs, and returns the Apache workload under the given reader.
pub fn run(
    cfg: &ApacheConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<ApacheRun> {
    let (mut session, image) = build(cfg, reader, cores, events, kernel_cfg)?;
    let report = session.run()?;
    Ok(ApacheRun {
        session,
        image,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::reader::{LimitReader, NullReader};

    fn small_cfg() -> ApacheConfig {
        ApacheConfig {
            workers: 4,
            requests_per_worker: 25,
            docs_bytes: 256 << 10,
            reads_per_request: 16,
            ..Default::default()
        }
    }

    #[test]
    fn uninstrumented_run_completes() {
        let run = run(
            &small_cfg(),
            &NullReader::new(),
            4,
            &[],
            KernelConfig::default(),
        )
        .unwrap();
        assert!(run.report.total_cycles > 0);
    }

    #[test]
    fn per_phase_records_cover_every_request() {
        let events = [EventKind::Cycles, EventKind::LlcMisses];
        let reader = LimitReader::with_events(events.to_vec());
        let cfg = small_cfg();
        let run = run(&cfg, &reader, 4, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let expected = cfg.workers as u64 * cfg.requests_per_worker;
        for (id, name) in run.image.regions.phases() {
            let n = records.iter().filter(|(_, r)| r.region == id).count() as u64;
            assert_eq!(n, expected, "{name} records");
        }
    }

    #[test]
    fn handler_dominates_llc_misses() {
        let events = [EventKind::Cycles, EventKind::LlcMisses];
        let reader = LimitReader::with_events(events.to_vec());
        let cfg = ApacheConfig {
            docs_bytes: 16 << 20, // well beyond the LLC
            ..small_cfg()
        };
        let run = run(&cfg, &reader, 4, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let misses = |id: u64| -> u64 {
            records
                .iter()
                .filter(|(_, r)| r.region == id)
                .map(|(_, r)| r.deltas[1])
                .sum()
        };
        let handler = misses(run.image.regions.handler);
        let parse = misses(run.image.regions.parse);
        assert!(
            handler > 10 * parse.max(1),
            "handler={handler} parse={parse}"
        );
    }

    #[test]
    fn log_mutex_serializes_appends() {
        let cfg = small_cfg();
        let run = run(&cfg, &NullReader::new(), 4, &[], KernelConfig::default()).unwrap();
        // The shared cursor advanced 32 bytes per request, exactly — only
        // possible if the mutex serialized every append.
        let cursor = run.session.read_u64(run.image.log_cursor).unwrap();
        assert_eq!(cursor, 32 * cfg.workers as u64 * cfg.requests_per_worker);
    }

    #[test]
    fn phase_pc_ranges_are_exported() {
        let mut asm = Asm::new();
        let mut layout = MemLayout::default();
        let mut regions = Regions::new();
        emit(
            &mut asm,
            &mut layout,
            &mut regions,
            &NullReader::new(),
            &small_cfg(),
        )
        .unwrap();
        let prog = asm.assemble().unwrap();
        for name in ["apache.parse", "apache.handler", "apache.log"] {
            assert!(prog.range(name).is_ok(), "missing range {name}");
        }
    }
}
