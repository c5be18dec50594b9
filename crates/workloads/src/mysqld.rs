//! A MySQL-like storage-engine skeleton (case study of experiments
//! E2/E6/E7).
//!
//! The workload reproduces the *synchronization topology* the paper's
//! MySQL study measures, not SQL semantics:
//!
//! * a pool of worker threads, each executing a stream of queries,
//! * per-table locks guarding short row accesses,
//! * one global **buffer-pool mutex** touched by every query,
//! * one global **log mutex** touched by every update,
//! * think time between queries.
//!
//! Every lock is instrumented twice: an *acquire* region (enter before the
//! lock, exit after — measures wait + handoff) and a *hold* region (enter
//! after the lock, exit before unlock — measures critical-section length).
//! With a LiMiT reader those regions cost ~tens of cycles to measure; with
//! the syscall baselines they cost microseconds — experiment E2's
//! comparison.

use crate::{locks, prng};
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, Instrumenter, LogMode};
use sim_core::{SimError, SimResult};
use sim_cpu::{AluOp, Asm, Cond, EventKind, MemLayout, Reg};
use sim_os::{KernelConfig, RunReport};

/// MySQL-workload parameters.
#[derive(Debug, Clone)]
pub struct MysqlConfig {
    /// Worker threads (connections).
    pub threads: usize,
    /// Number of tables (power of two).
    pub tables: u64,
    /// Bytes per table (power of two).
    pub table_bytes: u64,
    /// Queries per worker.
    pub queries_per_thread: u64,
    /// Rows touched per query.
    pub rows_per_query: u64,
    /// Updates per 1024 queries (the rest are selects).
    pub update_per_1024: u64,
    /// Think-time instructions between queries.
    pub think_instrs: u32,
    /// Buffer-pool bytes (power of two).
    pub bufpool_bytes: u64,
    /// Buffer-pool probes per query.
    pub bufpool_probes: u64,
    /// Base RNG seed (each worker derives its own).
    pub seed: u64,
    /// Instrumentation logging mode: per-event record log, bounded
    /// aggregate table, or streaming ring (see [`LogMode`]).
    pub mode: LogMode,
}

impl Default for MysqlConfig {
    fn default() -> Self {
        MysqlConfig {
            threads: 8,
            tables: 16,
            table_bytes: 256 * 1024,
            queries_per_thread: 200,
            rows_per_query: 4,
            update_per_1024: 256, // 25%
            think_instrs: 2_500,
            bufpool_bytes: 4 * 1024 * 1024,
            bufpool_probes: 4,
            seed: 0x5EED,
            mode: LogMode::Log,
        }
    }
}

impl MysqlConfig {
    /// Validates power-of-two and non-zero requirements.
    pub fn validate(&self) -> SimResult<()> {
        for (name, v) in [
            ("tables", self.tables),
            ("table_bytes", self.table_bytes),
            ("bufpool_bytes", self.bufpool_bytes),
        ] {
            if !v.is_power_of_two() {
                return Err(SimError::Config(format!("{name} must be a power of two")));
            }
        }
        if self.threads == 0 || self.queries_per_thread == 0 || self.rows_per_query == 0 {
            return Err(SimError::Config(
                "threads, queries and rows must be non-zero".into(),
            ));
        }
        if self.update_per_1024 > 1024 {
            return Err(SimError::Config("update_per_1024 must be <= 1024".into()));
        }
        Ok(())
    }
}

/// Region ids of the six instrumented lock regions.
#[derive(Debug, Clone, Copy)]
pub struct MysqlRegions {
    /// Table-lock acquire (wait) regions.
    pub acq_table: u64,
    /// Table-lock hold (critical-section) regions.
    pub hold_table: u64,
    /// Buffer-pool-mutex acquire.
    pub acq_buf: u64,
    /// Buffer-pool-mutex hold.
    pub hold_buf: u64,
    /// Log-mutex acquire.
    pub acq_log: u64,
    /// Log-mutex hold.
    pub hold_log: u64,
}

impl MysqlRegions {
    fn define(regions: &mut Regions) -> Self {
        MysqlRegions {
            acq_table: regions.define("mysql.table.acq"),
            hold_table: regions.define("mysql.table.hold"),
            acq_buf: regions.define("mysql.bufpool.acq"),
            hold_buf: regions.define("mysql.bufpool.hold"),
            acq_log: regions.define("mysql.log.acq"),
            hold_log: regions.define("mysql.log.hold"),
        }
    }

    /// `(id, name)` pairs for the hold regions (histogram reporting).
    pub fn hold_regions(&self) -> [(u64, &'static str); 3] {
        [
            (self.hold_table, "table"),
            (self.hold_buf, "bufpool"),
            (self.hold_log, "log"),
        ]
    }

    /// `(id, name)` pairs for the acquire regions.
    pub fn acq_regions(&self) -> [(u64, &'static str); 3] {
        [
            (self.acq_table, "table"),
            (self.acq_buf, "bufpool"),
            (self.acq_log, "log"),
        ]
    }
}

/// Addresses and region ids of an emitted MySQL image.
#[derive(Debug, Clone)]
pub struct MysqlImage {
    /// Worker entry symbol.
    pub entry: &'static str,
    /// Region ids.
    pub regions: MysqlRegions,
    /// Base address of the per-table lock array (64-byte stride).
    pub lock_base: u64,
    /// Buffer-pool mutex address.
    pub bufpool_lock: u64,
    /// Log mutex address.
    pub log_lock: u64,
    /// The configuration the image was emitted for.
    pub cfg: MysqlConfig,
}

/// Emits the worker program into `asm`, allocating shared data in
/// `layout`. Instrumentation is emitted only when the reader attaches at
/// least one counter.
pub fn emit(
    asm: &mut Asm,
    layout: &mut MemLayout,
    regions: &mut Regions,
    reader: &dyn CounterReader,
    cfg: &MysqlConfig,
) -> SimResult<MysqlImage> {
    cfg.validate()?;
    let r = MysqlRegions::define(regions);
    let lock_base = layout.alloc(cfg.tables * 64, 64);
    let bufpool_lock = layout.alloc(8, 64);
    let log_lock = layout.alloc(8, 64);
    let log_cursor = layout.alloc(8, 64);
    let log_data = layout.alloc(64 * 1024, 64);
    let table_base = layout.alloc(cfg.tables * cfg.table_bytes, 4096);
    let bufpool_base = layout.alloc(cfg.bufpool_bytes, 4096);

    let ins = Instrumenter::new(reader);
    let instrumented = reader.counters() > 0;
    let enter = |asm: &mut Asm| {
        if instrumented {
            ins.emit_enter(asm);
        }
    };
    let mode = cfg.mode;
    let exit = |asm: &mut Asm, region: u64| {
        if instrumented {
            ins.emit_exit_mode(asm, region, mode);
        }
    };

    // Row-access loop shared by select (loads) and update (stores).
    let emit_rows = |asm: &mut Asm, write: bool, cfg: &MysqlConfig| {
        asm.imm(Reg::R12, cfg.rows_per_query);
        let rtop = asm.new_label();
        asm.bind(rtop);
        prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.table_bytes);
        asm.alui(AluOp::And, Reg::R10, !7u64);
        asm.mov(Reg::R11, Reg::R14);
        asm.add(Reg::R11, Reg::R10);
        if write {
            asm.store(Reg::R8, Reg::R11, 0);
        } else {
            asm.load(Reg::R6, Reg::R11, 0);
        }
        asm.alui_sub(Reg::R12, 1);
        asm.br(Cond::Ne, Reg::R12, Reg::R2, rtop);
    };

    asm.export("mysql_worker");
    // Save the seed argument before reader setup clobbers r1.
    asm.mov(Reg::R8, Reg::R1);
    reader.emit_thread_setup(asm);
    asm.imm(Reg::R2, 0); // dedicated zero register (safe across syscalls)
    asm.imm(Reg::R9, cfg.queries_per_thread);

    let qloop = asm.new_label();
    asm.bind(qloop);

    // Think time (network / parse stand-in).
    if cfg.think_instrs > 0 {
        asm.burst(cfg.think_instrs);
    }

    // Pick a table: r13 = lock addr, r14 = table data base.
    prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.tables);
    asm.mov(Reg::R13, Reg::R10);
    asm.alui(AluOp::Shl, Reg::R13, 6);
    asm.alui_add(Reg::R13, lock_base);
    asm.mov(Reg::R14, Reg::R10);
    asm.alui(
        AluOp::Shl,
        Reg::R14,
        cfg.table_bytes.trailing_zeros() as u64,
    );
    asm.alui_add(Reg::R14, table_base);

    // Query type.
    prng::emit_next_below(asm, Reg::R8, Reg::R10, 1024);
    asm.imm(Reg::R12, cfg.update_per_1024);
    let do_update = asm.new_label();
    let after_table = asm.new_label();
    asm.br(Cond::Lt, Reg::R10, Reg::R12, do_update);

    // --- SELECT: table lock, read rows. ---
    enter(asm);
    locks::emit_lock(asm, Reg::R13);
    exit(asm, r.acq_table);
    enter(asm);
    emit_rows(asm, false, cfg);
    exit(asm, r.hold_table);
    locks::emit_unlock(asm, Reg::R13);
    asm.jmp(after_table);

    // --- UPDATE: table lock, write rows, then the log mutex. ---
    asm.bind(do_update);
    enter(asm);
    locks::emit_lock(asm, Reg::R13);
    exit(asm, r.acq_table);
    enter(asm);
    emit_rows(asm, true, cfg);
    exit(asm, r.hold_table);
    locks::emit_unlock(asm, Reg::R13);

    asm.imm(Reg::R13, log_lock);
    enter(asm);
    locks::emit_lock(asm, Reg::R13);
    exit(asm, r.acq_log);
    enter(asm);
    // Append a few words to the shared redo log.
    asm.imm(Reg::R6, 32);
    asm.imm(Reg::R11, log_cursor);
    asm.fetch_add(Reg::R6, Reg::R11, 0); // r6 = old cursor
    asm.alui(AluOp::And, Reg::R6, 64 * 1024 - 1);
    asm.alui(AluOp::And, Reg::R6, !7u64);
    asm.alui_add(Reg::R6, log_data);
    for w in 0..4 {
        asm.store(Reg::R8, Reg::R6, 8 * w);
    }
    exit(asm, r.hold_log);
    locks::emit_unlock(asm, Reg::R13);

    asm.bind(after_table);

    // --- Buffer-pool lookups (every query). ---
    asm.imm(Reg::R13, bufpool_lock);
    enter(asm);
    locks::emit_lock(asm, Reg::R13);
    exit(asm, r.acq_buf);
    enter(asm);
    for _ in 0..cfg.bufpool_probes {
        prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.bufpool_bytes);
        asm.alui(AluOp::And, Reg::R10, !7u64);
        asm.imm(Reg::R11, bufpool_base);
        asm.add(Reg::R11, Reg::R10);
        asm.load(Reg::R6, Reg::R11, 0);
    }
    exit(asm, r.hold_buf);
    locks::emit_unlock(asm, Reg::R13);

    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, qloop);
    asm.halt();

    Ok(MysqlImage {
        entry: "mysql_worker",
        regions: r,
        lock_base,
        bufpool_lock,
        log_lock,
        cfg: cfg.clone(),
    })
}

/// A completed MySQL run: the session (for record extraction), the image,
/// and the kernel report.
#[derive(Debug)]
pub struct MysqlRun {
    /// The finished session.
    pub session: Session,
    /// The emitted image.
    pub image: MysqlImage,
    /// The kernel's run report.
    pub report: RunReport,
}

/// Builds a MySQL workload — session configured per `cfg.mode`, all
/// workers spawned — without running it. The caller drives the kernel
/// (the telemetry monitor attaches a collector and uses
/// `run_with_hook`-style execution; plain callers use [`run`]).
pub fn build(
    cfg: &MysqlConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<(Session, MysqlImage)> {
    let builder = SessionBuilder::new(cores).kernel_config(kernel_cfg);
    build_on(cfg, reader, builder, events)
}

/// [`build`] on a caller-configured session builder (a full
/// `MachineParams` machine, an explicit interpreter mode): the
/// [`crate::Workload::build`] entry point.
pub(crate) fn build_on(
    cfg: &MysqlConfig,
    reader: &dyn CounterReader,
    builder: SessionBuilder,
    events: &[EventKind],
) -> SimResult<(Session, MysqlImage)> {
    let (mut session, image) =
        crate::assemble(builder, events, cfg.mode, |asm, layout, regions| {
            emit(asm, layout, regions, reader, cfg)
        })?;
    let mut seed = sim_core::DetRng::new(cfg.seed);
    for _ in 0..cfg.threads {
        let worker_seed = seed.next_u64();
        session.spawn_instrumented(image.entry, &[worker_seed])?;
    }
    Ok((session, image))
}

/// Builds, runs, and returns a MySQL workload under the given reader.
pub fn run(
    cfg: &MysqlConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<MysqlRun> {
    let (mut session, image) = build(cfg, reader, cores, events, kernel_cfg)?;
    let report = session.run()?;
    Ok(MysqlRun {
        session,
        image,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::reader::{LimitReader, NullReader};

    fn small_cfg() -> MysqlConfig {
        MysqlConfig {
            threads: 4,
            tables: 4,
            table_bytes: 16 * 1024,
            queries_per_thread: 30,
            rows_per_query: 4,
            bufpool_bytes: 64 * 1024,
            ..Default::default()
        }
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let mut c = small_cfg();
        c.tables = 3;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.update_per_1024 = 2000;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.threads = 0;
        assert!(c.validate().is_err());
        assert!(small_cfg().validate().is_ok());
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
        // All workers exited.
        assert!(run.session.kernel.threads().iter().all(|t| t.is_exited()));
    }

    #[test]
    fn instrumented_run_produces_records_for_all_regions() {
        let events = [EventKind::Cycles, EventKind::Instructions];
        let reader = LimitReader::with_events(events.to_vec());
        let run = run(&small_cfg(), &reader, 4, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let cfg = &run.image.cfg;
        let per_thread_queries = cfg.queries_per_thread;
        // Each query produces: table acq+hold, bufpool acq+hold, and
        // updates add log acq+hold. Lower bound: 4 regions per query.
        let min = cfg.threads as u64 * per_thread_queries * 4;
        assert!(
            records.len() as u64 >= min,
            "records {} < {min}",
            records.len()
        );
        // Every defined region shows up.
        for (id, _) in run
            .image
            .regions
            .hold_regions()
            .iter()
            .chain(run.image.regions.acq_regions().iter())
        {
            assert!(
                records.iter().any(|(_, rec)| rec.region == *id),
                "region {id} missing"
            );
        }
    }

    #[test]
    fn hold_times_are_short_and_waits_grow_with_contention() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        // Heavy contention: many threads, one table, one core pair.
        let cfg = MysqlConfig {
            threads: 8,
            tables: 1,
            queries_per_thread: 25,
            think_instrs: 50,
            ..small_cfg()
        };
        let run = run(&cfg, &reader, 2, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let hold: Vec<u64> = records
            .iter()
            .filter(|(_, r)| r.region == run.image.regions.hold_table)
            .map(|(_, r)| r.deltas[0])
            .collect();
        let acq: Vec<u64> = records
            .iter()
            .filter(|(_, r)| r.region == run.image.regions.acq_table)
            .map(|(_, r)| r.deltas[0])
            .collect();
        assert!(!hold.is_empty() && !acq.is_empty());
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        // Hold times: a handful of row accesses — hundreds of cycles, not
        // tens of thousands (cycle counters are virtualized, so time spent
        // descheduled does not pollute them).
        assert!(mean(&hold) < 20_000.0, "mean hold {} too long", mean(&hold));
        assert!(run.report.futex.0 > 0, "contention must cause blocking");
    }

    #[test]
    fn aggregate_mode_matches_per_event_counts() {
        let events = [EventKind::Cycles, EventKind::Instructions];
        let reader = LimitReader::with_events(events.to_vec());
        let log_run = run(&small_cfg(), &reader, 4, &events, KernelConfig::default()).unwrap();
        let reader = LimitReader::with_events(events.to_vec());
        let agg_cfg = MysqlConfig {
            mode: LogMode::Aggregate,
            ..small_cfg()
        };
        let agg_run = run(&agg_cfg, &reader, 4, &events, KernelConfig::default()).unwrap();
        let records = log_run.session.all_records().unwrap();
        let aggregates = agg_run.session.aggregates_total().unwrap();
        // Same region execution counts either way (the workload is
        // deterministic in structure; only instrumentation encoding
        // differs).
        for agg in &aggregates {
            let log_count = records
                .iter()
                .filter(|(_, r)| r.region == agg.region)
                .count() as u64;
            assert_eq!(agg.count, log_count, "region {}", agg.region);
        }
        let total: u64 = aggregates.iter().map(|a| a.count).sum();
        assert_eq!(total, records.len() as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let events = [EventKind::Instructions];
        let mk = || {
            let reader = LimitReader::with_events(events.to_vec());
            run(&small_cfg(), &reader, 2, &events, KernelConfig::default()).unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
        assert_eq!(
            a.session.all_records().unwrap(),
            b.session.all_records().unwrap()
        );
    }
}
