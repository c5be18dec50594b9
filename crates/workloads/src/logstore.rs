//! A log-structured store with fsync-bound commits (case study of
//! experiment E18).
//!
//! The workload reproduces the *I/O topology* of a write-ahead-logging
//! storage engine, not its data structures:
//!
//! * worker threads batch appends into an in-memory segment buffer
//!   (`store.append` — pure compute and stores),
//! * every batch commits with a blocking fsync (`store.commit` — the
//!   thread parks on the `fsync` device until the barrier completes),
//! * an occasional segment read from disk rides along in the append path
//!   (compaction stand-in), so the `disk` device sees traffic the what-if
//!   ranking must *not* blame.
//!
//! Because the kernel charges blocking-I/O waits into the parked thread's
//! virtualized cycle counter, the commit region's cycle deltas are
//! dominated by fsync latency — the signature the `io-bound` classifier
//! and the `fsync-latency` what-if knob both key on.

use crate::prng;
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, Instrumenter, LogMode};
use sim_core::{SimError, SimResult};
use sim_cpu::{AluOp, Asm, Cond, EventKind, MemLayout, Reg};
use sim_os::io::{DEV_DISK, DEV_FSYNC};
use sim_os::syscall::nr;
use sim_os::{KernelConfig, RunReport};

/// Log-store workload parameters.
#[derive(Debug, Clone)]
pub struct LogstoreConfig {
    /// Worker threads.
    pub threads: usize,
    /// Commit batches per worker.
    pub commits_per_thread: u64,
    /// Appends batched into each commit.
    pub appends_per_commit: u64,
    /// Serialization instructions per append (encode stand-in).
    pub append_instrs: u32,
    /// Per-worker segment-buffer bytes (power of two).
    pub buffer_bytes: u64,
    /// Disk segment reads per 1024 appends (compaction stand-in).
    pub disk_reads_per_1024: u64,
    /// Base RNG seed (each worker derives its own).
    pub seed: u64,
    /// Instrumentation logging mode (see [`LogMode`]).
    pub mode: LogMode,
}

impl Default for LogstoreConfig {
    fn default() -> Self {
        LogstoreConfig {
            threads: 4,
            commits_per_thread: 24,
            appends_per_commit: 16,
            append_instrs: 300,
            buffer_bytes: 64 * 1024,
            disk_reads_per_1024: 64, // ~6% of appends
            seed: 0x5706_5EED,
            mode: LogMode::Log,
        }
    }
}

impl LogstoreConfig {
    /// Validates power-of-two and non-zero requirements.
    pub fn validate(&self) -> SimResult<()> {
        if !self.buffer_bytes.is_power_of_two() {
            return Err(SimError::Config(
                "buffer_bytes must be a power of two".into(),
            ));
        }
        if self.threads == 0 || self.commits_per_thread == 0 || self.appends_per_commit == 0 {
            return Err(SimError::Config(
                "threads, commits and appends must be non-zero".into(),
            ));
        }
        if self.disk_reads_per_1024 > 1024 {
            return Err(SimError::Config(
                "disk_reads_per_1024 must be <= 1024".into(),
            ));
        }
        Ok(())
    }
}

/// Region ids of the two instrumented phases.
#[derive(Debug, Clone, Copy)]
pub struct LogstoreRegions {
    /// Append batching (compute + stores + occasional disk read).
    pub append: u64,
    /// Commit barrier (fsync wait).
    pub commit: u64,
}

impl LogstoreRegions {
    fn define(regions: &mut Regions) -> Self {
        LogstoreRegions {
            append: regions.define("store.append"),
            commit: regions.define("store.commit"),
        }
    }
}

/// Addresses and region ids of an emitted log-store image.
#[derive(Debug, Clone)]
pub struct LogstoreImage {
    /// Worker entry symbol.
    pub entry: &'static str,
    /// Region ids.
    pub regions: LogstoreRegions,
    /// Base of the per-worker segment buffers (`buffer_bytes` stride).
    pub buffer_base: u64,
    /// The configuration the image was emitted for.
    pub cfg: LogstoreConfig,
}

/// Emits the worker program into `asm`, allocating shared data in
/// `layout`. Instrumentation is emitted only when the reader attaches at
/// least one counter.
pub fn emit(
    asm: &mut Asm,
    layout: &mut MemLayout,
    regions: &mut Regions,
    reader: &dyn CounterReader,
    cfg: &LogstoreConfig,
) -> SimResult<LogstoreImage> {
    cfg.validate()?;
    let r = LogstoreRegions::define(regions);
    let buffer_base = layout.alloc(cfg.threads as u64 * cfg.buffer_bytes, 4096);

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

    asm.export("logstore_worker");
    // Save spawn args before reader setup clobbers r1/r2: r1 = seed,
    // r2 = worker index.
    asm.mov(Reg::R8, Reg::R1);
    asm.mov(Reg::R14, Reg::R2);
    reader.emit_thread_setup(asm);
    // r14 = this worker's segment buffer base.
    asm.alui(
        AluOp::Shl,
        Reg::R14,
        cfg.buffer_bytes.trailing_zeros() as u64,
    );
    asm.alui_add(Reg::R14, buffer_base);
    asm.imm(Reg::R2, 0); // dedicated zero register
    asm.imm(Reg::R9, cfg.commits_per_thread);

    let cloop = asm.new_label();
    asm.bind(cloop);

    // --- Append batch: encode work + buffer stores, rare disk read. ---
    enter(asm);
    asm.imm(Reg::R12, cfg.appends_per_commit);
    let atop = asm.new_label();
    asm.bind(atop);
    if cfg.append_instrs > 0 {
        asm.burst(cfg.append_instrs);
    }
    prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.buffer_bytes);
    asm.alui(AluOp::And, Reg::R10, !7u64);
    asm.mov(Reg::R11, Reg::R14);
    asm.add(Reg::R11, Reg::R10);
    asm.store(Reg::R8, Reg::R11, 0);
    if cfg.disk_reads_per_1024 > 0 {
        // Compaction stand-in: a blocking segment read from disk.
        prng::emit_next_below(asm, Reg::R8, Reg::R10, 1024);
        asm.imm(Reg::R13, cfg.disk_reads_per_1024);
        let no_read = asm.new_label();
        asm.br(Cond::Ge, Reg::R10, Reg::R13, no_read);
        asm.imm(Reg::R0, DEV_DISK as u64);
        asm.imm(Reg::R1, r.append);
        asm.syscall(nr::IO_SUBMIT);
        asm.bind(no_read);
    }
    asm.alui_sub(Reg::R12, 1);
    asm.br(Cond::Ne, Reg::R12, Reg::R2, atop);
    exit(asm, r.append);

    // --- Commit: block on the fsync barrier. ---
    enter(asm);
    asm.imm(Reg::R0, DEV_FSYNC as u64);
    asm.imm(Reg::R1, r.commit);
    asm.syscall(nr::IO_SUBMIT);
    exit(asm, r.commit);

    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, cloop);
    asm.halt();

    Ok(LogstoreImage {
        entry: "logstore_worker",
        regions: r,
        buffer_base,
        cfg: cfg.clone(),
    })
}

/// A completed log-store run.
#[derive(Debug)]
pub struct LogstoreRun {
    /// The finished session.
    pub session: Session,
    /// The emitted image.
    pub image: LogstoreImage,
    /// The kernel's run report.
    pub report: RunReport,
}

/// Builds a log-store workload — session configured per `cfg.mode`, all
/// workers spawned — without running it.
pub fn build(
    cfg: &LogstoreConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<(Session, LogstoreImage)> {
    let builder = SessionBuilder::new(cores).kernel_config(kernel_cfg);
    build_on(cfg, reader, builder, events)
}

/// [`build`] on a caller-configured session builder (a full
/// `MachineParams` machine, an explicit interpreter mode): the
/// [`crate::Workload::build`] entry point.
pub(crate) fn build_on(
    cfg: &LogstoreConfig,
    reader: &dyn CounterReader,
    builder: SessionBuilder,
    events: &[EventKind],
) -> SimResult<(Session, LogstoreImage)> {
    let (mut session, image) =
        crate::assemble(builder, events, cfg.mode, |asm, layout, regions| {
            emit(asm, layout, regions, reader, cfg)
        })?;
    let mut seed = sim_core::DetRng::new(cfg.seed);
    for i in 0..cfg.threads {
        let worker_seed = seed.next_u64();
        session.spawn_instrumented(image.entry, &[worker_seed, i as u64])?;
    }
    Ok((session, image))
}

/// Builds, runs, and returns a log-store workload under the given reader.
pub fn run(
    cfg: &LogstoreConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<LogstoreRun> {
    let (mut session, image) = build(cfg, reader, cores, events, kernel_cfg)?;
    let report = session.run()?;
    Ok(LogstoreRun {
        session,
        image,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::reader::{LimitReader, NullReader};

    fn small_cfg() -> LogstoreConfig {
        LogstoreConfig {
            threads: 2,
            commits_per_thread: 6,
            appends_per_commit: 4,
            append_instrs: 50,
            buffer_bytes: 4 * 1024,
            ..Default::default()
        }
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let mut c = small_cfg();
        c.buffer_bytes = 3000;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.commits_per_thread = 0;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.disk_reads_per_1024 = 2000;
        assert!(c.validate().is_err());
        assert!(small_cfg().validate().is_ok());
    }

    #[test]
    fn uninstrumented_run_completes_and_blocks_on_fsync() {
        let run = run(
            &small_cfg(),
            &NullReader::new(),
            2,
            &[],
            KernelConfig::default(),
        )
        .unwrap();
        assert!(run.session.kernel.threads().iter().all(|t| t.is_exited()));
        // One fsync per commit, at least.
        let min = (small_cfg().threads as u64) * small_cfg().commits_per_thread;
        assert!(run.report.io_submits >= min, "{}", run.report.io_submits);
        assert!(run.report.io_wait_cycles > 0);
    }

    #[test]
    fn commit_cycles_are_dominated_by_fsync_waits() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        let run = run(&small_cfg(), &reader, 2, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let mean = |region: u64| {
            let v: Vec<u64> = records
                .iter()
                .filter(|(_, r)| r.region == region)
                .map(|(_, r)| r.deltas[0])
                .collect();
            assert!(!v.is_empty(), "region {region} missing");
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        // The fsync distribution's minimum is 200k cycles; commit's
        // compute is a few hundred. Append's mean stays well below.
        let commit = mean(run.image.regions.commit);
        let append = mean(run.image.regions.append);
        assert!(commit >= 200_000.0, "commit mean {commit}");
        assert!(commit > 4.0 * append, "commit {commit} vs append {append}");
    }

    #[test]
    fn deterministic_given_seed() {
        let events = [EventKind::Cycles, EventKind::Instructions];
        let mk = || {
            let reader = LimitReader::with_events(events.to_vec());
            run(&small_cfg(), &reader, 2, &events, KernelConfig::default()).unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
        assert_eq!(a.report.io_wait_cycles, b.report.io_wait_cycles);
        assert_eq!(
            a.session.all_records().unwrap(),
            b.session.all_records().unwrap()
        );
    }
}
