//! A memcached-like key-value server with striped bucket locks (extension
//! experiment E12).
//!
//! The interesting knob is **lock striping**: the hash table's buckets are
//! guarded by `stripes` locks (`stripe = bucket mod stripes`). With one
//! stripe the store serializes like a global-lock cache; with many
//! stripes contention vanishes. Sweeping the stripe count — measured with
//! per-operation LiMiT instrumentation — is exactly the kind of
//! architectural what-if the paper argues precise counting enables:
//! the answer ("how many stripes until synchronization stops being the
//! bottleneck?") requires measuring lock acquire costs far shorter than a
//! sampling interval.

use crate::{locks, prng};
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, Instrumenter, LogMode};
use sim_core::{SimError, SimResult};
use sim_cpu::{AluOp, Asm, Cond, EventKind, MemLayout, Reg};
use sim_os::{KernelConfig, RunReport};

/// Memcached-workload parameters.
#[derive(Debug, Clone)]
pub struct MemcachedConfig {
    /// Worker threads.
    pub workers: usize,
    /// Operations per worker.
    pub ops_per_worker: u64,
    /// Hash-table buckets (power of two); one cache line each.
    pub buckets: u64,
    /// Lock stripes (power of two, ≤ buckets).
    pub stripes: u64,
    /// SETs per 1024 operations (the rest are GETs).
    pub set_per_1024: u64,
    /// Request parse/respond instructions per op.
    pub op_instrs: u32,
    /// Atomic read-modify-writes on the bucket's bookkeeping word inside
    /// the critical section (item refcount + stats updates, as in real
    /// memcached). 0 — the default — emits nothing, keeping the
    /// instruction stream identical to earlier revisions; E16's
    /// lock-bound shape raises it so the held section is dominated by
    /// atomic cost.
    pub hold_rmws: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Instrumentation logging mode: per-event record log, bounded
    /// aggregate table, or streaming ring (see [`LogMode`]).
    pub mode: LogMode,
}

impl Default for MemcachedConfig {
    fn default() -> Self {
        MemcachedConfig {
            workers: 8,
            ops_per_worker: 400,
            buckets: 4_096,
            stripes: 16,
            set_per_1024: 102, // ~10%
            op_instrs: 250,
            hold_rmws: 0,
            seed: 0xCAC4E,
            mode: LogMode::Log,
        }
    }
}

impl MemcachedConfig {
    /// Validates shape requirements.
    pub fn validate(&self) -> SimResult<()> {
        if !self.buckets.is_power_of_two() || !self.stripes.is_power_of_two() {
            return Err(SimError::Config(
                "buckets and stripes must be powers of two".into(),
            ));
        }
        if self.stripes > self.buckets {
            return Err(SimError::Config("stripes must be <= buckets".into()));
        }
        if self.workers == 0 || self.ops_per_worker == 0 {
            return Err(SimError::Config("workers and ops must be non-zero".into()));
        }
        if self.set_per_1024 > 1024 {
            return Err(SimError::Config("set_per_1024 must be <= 1024".into()));
        }
        Ok(())
    }
}

/// Region ids for the instrumented sections.
#[derive(Debug, Clone, Copy)]
pub struct MemcachedRegions {
    /// Stripe-lock acquire (wait + handoff).
    pub acq: u64,
    /// Bucket critical section (probe/update under the lock).
    pub hold: u64,
}

/// An emitted memcached image.
#[derive(Debug, Clone)]
pub struct MemcachedImage {
    /// Worker entry symbol.
    pub entry: &'static str,
    /// Region ids.
    pub regions: MemcachedRegions,
    /// Base of the stripe-lock array (64-byte stride).
    pub lock_base: u64,
    /// Base of the bucket array (64 bytes per bucket).
    pub table_base: u64,
    /// The configuration.
    pub cfg: MemcachedConfig,
}

/// Emits the worker program.
pub fn emit(
    asm: &mut Asm,
    layout: &mut MemLayout,
    regions: &mut Regions,
    reader: &dyn CounterReader,
    cfg: &MemcachedConfig,
) -> SimResult<MemcachedImage> {
    cfg.validate()?;
    let lock_base = layout.alloc(cfg.stripes * 64, 64);
    let table_base = layout.alloc(cfg.buckets * 64, 4096);
    let r = MemcachedRegions {
        acq: regions.define("mc.lock.acq"),
        hold: regions.define("mc.bucket.hold"),
    };
    let ins = Instrumenter::new(reader);
    let instrumented = reader.counters() > 0;

    asm.export("mc_worker");
    asm.mov(Reg::R8, Reg::R1); // seed, before setup clobbers r1
    reader.emit_thread_setup(asm);
    asm.imm(Reg::R2, 0);
    asm.imm(Reg::R9, cfg.ops_per_worker);

    let top = asm.new_label();
    asm.bind(top);

    // Parse/respond compute.
    asm.burst(cfg.op_instrs);

    // key -> bucket (r10), stripe lock addr (r13), bucket addr (r14).
    prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.buckets);
    asm.mov(Reg::R13, Reg::R10);
    asm.alui(AluOp::And, Reg::R13, cfg.stripes - 1);
    asm.alui(AluOp::Shl, Reg::R13, 6);
    asm.alui_add(Reg::R13, lock_base);
    asm.mov(Reg::R14, Reg::R10);
    asm.alui(AluOp::Shl, Reg::R14, 6);
    asm.alui_add(Reg::R14, table_base);

    // GET or SET?
    prng::emit_next_below(asm, Reg::R8, Reg::R10, 1024);
    asm.imm(Reg::R12, cfg.set_per_1024);

    if instrumented {
        ins.emit_enter(asm);
    }
    locks::emit_lock(asm, Reg::R13);
    if instrumented {
        ins.emit_exit_mode(asm, r.acq, cfg.mode);
        ins.emit_enter(asm);
    }
    // Bucket probe: 3 chained words (key, value, metadata).
    asm.load(Reg::R6, Reg::R14, 0);
    asm.load(Reg::R6, Reg::R14, 8);
    asm.load(Reg::R6, Reg::R14, 16);
    let skip_set = asm.new_label();
    asm.br(Cond::Ge, Reg::R10, Reg::R12, skip_set);
    // SET: update value + metadata.
    asm.store(Reg::R8, Reg::R14, 8);
    asm.store(Reg::R9, Reg::R14, 16);
    asm.bind(skip_set);
    // Item bookkeeping: refcount/stats RMWs on the bucket's fourth word.
    for _ in 0..cfg.hold_rmws {
        asm.imm(Reg::R4, 1);
        asm.xchg(Reg::R4, Reg::R14, 24);
    }
    if instrumented {
        ins.emit_exit_mode(asm, r.hold, cfg.mode);
    }
    locks::emit_unlock(asm, Reg::R13);

    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, top);
    asm.halt();

    Ok(MemcachedImage {
        entry: "mc_worker",
        regions: r,
        lock_base,
        table_base,
        cfg: cfg.clone(),
    })
}

/// A completed memcached run.
#[derive(Debug)]
pub struct MemcachedRun {
    /// The finished session.
    pub session: Session,
    /// The emitted image.
    pub image: MemcachedImage,
    /// The kernel's run report.
    pub report: RunReport,
}

impl MemcachedRun {
    /// Operations completed across all workers.
    pub fn total_ops(&self) -> u64 {
        self.image.cfg.workers as u64 * self.image.cfg.ops_per_worker
    }

    /// Throughput in operations per million guest cycles.
    pub fn ops_per_mcycle(&self) -> f64 {
        self.total_ops() as f64 / (self.report.total_cycles as f64 / 1e6)
    }
}

/// Builds the memcached workload — session configured per `cfg.mode`,
/// all workers spawned — without running it (see [`crate::mysqld::build`]
/// for the telemetry-monitor use case).
pub fn build(
    cfg: &MemcachedConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<(Session, MemcachedImage)> {
    let builder = SessionBuilder::new(cores).kernel_config(kernel_cfg);
    build_on(cfg, reader, builder, events)
}

/// [`build`] on a caller-configured session builder (a full
/// `MachineParams` machine, an explicit interpreter mode): the
/// [`crate::Workload::build`] entry point.
pub(crate) fn build_on(
    cfg: &MemcachedConfig,
    reader: &dyn CounterReader,
    builder: SessionBuilder,
    events: &[EventKind],
) -> SimResult<(Session, MemcachedImage)> {
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

/// Builds, runs, and returns the memcached workload under the given reader.
pub fn run(
    cfg: &MemcachedConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<MemcachedRun> {
    let (mut session, image) = build(cfg, reader, cores, events, kernel_cfg)?;
    let report = session.run()?;
    Ok(MemcachedRun {
        session,
        image,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::reader::{LimitReader, NullReader};

    fn small_cfg() -> MemcachedConfig {
        MemcachedConfig {
            workers: 4,
            ops_per_worker: 60,
            buckets: 256,
            ..Default::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(small_cfg().validate().is_ok());
        let mut c = small_cfg();
        c.stripes = c.buckets * 2;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.buckets = 100;
        assert!(c.validate().is_err());
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
        assert!(run.ops_per_mcycle() > 0.0);
    }

    #[test]
    fn every_op_produces_acq_and_hold_records() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        let cfg = small_cfg();
        let run = run(&cfg, &reader, 4, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let expected = cfg.workers as u64 * cfg.ops_per_worker;
        for (id, name) in [
            (run.image.regions.acq, "acq"),
            (run.image.regions.hold, "hold"),
        ] {
            let n = records.iter().filter(|(_, r)| r.region == id).count() as u64;
            assert_eq!(n, expected, "{name}");
        }
    }

    #[test]
    fn single_stripe_contends_many_stripes_do_not() {
        let mk = |stripes: u64| {
            let cfg = MemcachedConfig {
                workers: 8,
                ops_per_worker: 80,
                stripes,
                op_instrs: 60, // little non-critical work: maximal pressure
                ..small_cfg()
            };
            run(&cfg, &NullReader::new(), 8, &[], KernelConfig::default()).unwrap()
        };
        let coarse = mk(1);
        let fine = mk(64);
        assert!(
            coarse.report.futex.0 > 10 * fine.report.futex.0.max(1),
            "coarse {} vs fine {} futex waits",
            coarse.report.futex.0,
            fine.report.futex.0
        );
        assert!(
            fine.ops_per_mcycle() > 1.5 * coarse.ops_per_mcycle(),
            "striping must raise throughput: {} vs {}",
            fine.ops_per_mcycle(),
            coarse.ops_per_mcycle()
        );
    }

    #[test]
    fn table_updates_are_serialized() {
        // All workers SET every op on a single-stripe table: the metadata
        // word of each bucket is written under the lock; no fault or
        // torn-state crash implies serialization held. Sanity-check one
        // bucket's metadata is a plausible r9 value (< ops_per_worker+1).
        let cfg = MemcachedConfig {
            workers: 4,
            ops_per_worker: 50,
            buckets: 16,
            stripes: 1,
            set_per_1024: 1024, // all SETs
            ..small_cfg()
        };
        let run = run(&cfg, &NullReader::new(), 4, &[], KernelConfig::default()).unwrap();
        let mut wrote_any = false;
        for b in 0..cfg.buckets {
            let meta = run
                .session
                .read_u64(run.image.table_base + b * 64 + 16)
                .unwrap();
            assert!(meta <= cfg.ops_per_worker, "meta {meta}");
            wrote_any |= meta != 0;
        }
        assert!(wrote_any);
    }
}
