//! A fan-out proxy: parse a request, call N backends over the network
//! (companion I/O workload of experiment E18).
//!
//! The workload reproduces the *I/O topology* of a scatter-gather reverse
//! proxy:
//!
//! * worker threads each handle a stream of requests,
//! * `proxy.parse` — header parsing and routing (pure compute plus a few
//!   table loads),
//! * `proxy.fanout` — one blocking network round-trip per backend, issued
//!   sequentially (the guest ISA has no async I/O), so the region's cycle
//!   deltas sum `fanout` draws from the `net` device's latency
//!   distribution.
//!
//! With the default net distribution (mean 125 k cycles, max 1 M) the
//! per-call waits sit *below* the slow-I/O threshold — the proxy is
//! I/O-heavy but not "slow-I/O" in renacer's sense, the contrast the
//! telemetry tier's slow-call column is meant to surface.

use crate::prng;
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, Instrumenter, LogMode};
use sim_core::{SimError, SimResult};
use sim_cpu::{AluOp, Asm, Cond, EventKind, MemLayout, Reg};
use sim_os::io::DEV_NET;
use sim_os::syscall::nr;
use sim_os::{KernelConfig, RunReport};

/// Proxy workload parameters.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Worker threads.
    pub threads: usize,
    /// Requests per worker.
    pub requests_per_thread: u64,
    /// Backend calls per request.
    pub fanout: u64,
    /// Parse/route instructions per request.
    pub parse_instrs: u32,
    /// Routing-table bytes (power of two).
    pub table_bytes: u64,
    /// Base RNG seed (each worker derives its own).
    pub seed: u64,
    /// Instrumentation logging mode (see [`LogMode`]).
    pub mode: LogMode,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            threads: 4,
            requests_per_thread: 32,
            fanout: 4,
            parse_instrs: 800,
            table_bytes: 16 * 1024,
            seed: 0x9809_5EED,
            mode: LogMode::Log,
        }
    }
}

impl ProxyConfig {
    /// Validates power-of-two and non-zero requirements.
    pub fn validate(&self) -> SimResult<()> {
        if !self.table_bytes.is_power_of_two() {
            return Err(SimError::Config(
                "table_bytes must be a power of two".into(),
            ));
        }
        if self.threads == 0 || self.requests_per_thread == 0 || self.fanout == 0 {
            return Err(SimError::Config(
                "threads, requests and fanout must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Region ids of the two instrumented phases.
#[derive(Debug, Clone, Copy)]
pub struct ProxyRegions {
    /// Request parsing and routing.
    pub parse: u64,
    /// Backend fan-out (net waits).
    pub fanout: u64,
}

impl ProxyRegions {
    fn define(regions: &mut Regions) -> Self {
        ProxyRegions {
            parse: regions.define("proxy.parse"),
            fanout: regions.define("proxy.fanout"),
        }
    }
}

/// Addresses and region ids of an emitted proxy image.
#[derive(Debug, Clone)]
pub struct ProxyImage {
    /// Worker entry symbol.
    pub entry: &'static str,
    /// Region ids.
    pub regions: ProxyRegions,
    /// Routing-table base address.
    pub table_base: u64,
    /// The configuration the image was emitted for.
    pub cfg: ProxyConfig,
}

/// Emits the worker program into `asm`, allocating shared data in
/// `layout`. Instrumentation is emitted only when the reader attaches at
/// least one counter.
pub fn emit(
    asm: &mut Asm,
    layout: &mut MemLayout,
    regions: &mut Regions,
    reader: &dyn CounterReader,
    cfg: &ProxyConfig,
) -> SimResult<ProxyImage> {
    cfg.validate()?;
    let r = ProxyRegions::define(regions);
    let table_base = layout.alloc(cfg.table_bytes, 4096);

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

    asm.export("proxy_worker");
    // Save the seed argument before reader setup clobbers r1.
    asm.mov(Reg::R8, Reg::R1);
    reader.emit_thread_setup(asm);
    asm.imm(Reg::R2, 0); // dedicated zero register
    asm.imm(Reg::R9, cfg.requests_per_thread);

    let qloop = asm.new_label();
    asm.bind(qloop);

    // --- Parse: header scan + routing-table probes. ---
    enter(asm);
    if cfg.parse_instrs > 0 {
        asm.burst(cfg.parse_instrs);
    }
    for _ in 0..4 {
        prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.table_bytes);
        asm.alui(AluOp::And, Reg::R10, !7u64);
        asm.imm(Reg::R11, table_base);
        asm.add(Reg::R11, Reg::R10);
        asm.load(Reg::R6, Reg::R11, 0);
    }
    exit(asm, r.parse);

    // --- Fan-out: one blocking net round-trip per backend. ---
    enter(asm);
    asm.imm(Reg::R12, cfg.fanout);
    let ftop = asm.new_label();
    asm.bind(ftop);
    asm.imm(Reg::R0, DEV_NET as u64);
    asm.imm(Reg::R1, r.fanout);
    asm.syscall(nr::IO_SUBMIT);
    asm.alui_sub(Reg::R12, 1);
    asm.br(Cond::Ne, Reg::R12, Reg::R2, ftop);
    exit(asm, r.fanout);

    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, qloop);
    asm.halt();

    Ok(ProxyImage {
        entry: "proxy_worker",
        regions: r,
        table_base,
        cfg: cfg.clone(),
    })
}

/// A completed proxy run.
#[derive(Debug)]
pub struct ProxyRun {
    /// The finished session.
    pub session: Session,
    /// The emitted image.
    pub image: ProxyImage,
    /// The kernel's run report.
    pub report: RunReport,
}

/// Builds a proxy workload — session configured per `cfg.mode`, all
/// workers spawned — without running it.
pub fn build(
    cfg: &ProxyConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<(Session, ProxyImage)> {
    let builder = SessionBuilder::new(cores).kernel_config(kernel_cfg);
    build_on(cfg, reader, builder, events)
}

/// [`build`] on a caller-configured session builder (a full
/// `MachineParams` machine, an explicit interpreter mode): the
/// [`crate::Workload::build`] entry point.
pub(crate) fn build_on(
    cfg: &ProxyConfig,
    reader: &dyn CounterReader,
    builder: SessionBuilder,
    events: &[EventKind],
) -> SimResult<(Session, ProxyImage)> {
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

/// Builds, runs, and returns a proxy workload under the given reader.
pub fn run(
    cfg: &ProxyConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<ProxyRun> {
    let (mut session, image) = build(cfg, reader, cores, events, kernel_cfg)?;
    let report = session.run()?;
    Ok(ProxyRun {
        session,
        image,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::reader::{LimitReader, NullReader};

    fn small_cfg() -> ProxyConfig {
        ProxyConfig {
            threads: 2,
            requests_per_thread: 8,
            fanout: 3,
            parse_instrs: 200,
            table_bytes: 4 * 1024,
            ..Default::default()
        }
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let mut c = small_cfg();
        c.table_bytes = 3000;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.fanout = 0;
        assert!(c.validate().is_err());
        assert!(small_cfg().validate().is_ok());
    }

    #[test]
    fn uninstrumented_run_issues_fanout_net_calls() {
        let cfg = small_cfg();
        let run = run(&cfg, &NullReader::new(), 2, &[], KernelConfig::default()).unwrap();
        assert!(run.session.kernel.threads().iter().all(|t| t.is_exited()));
        let want = cfg.threads as u64 * cfg.requests_per_thread * cfg.fanout;
        assert_eq!(run.report.io_submits, want);
    }

    #[test]
    fn fanout_cycles_scale_with_fanout_breadth() {
        let events = [EventKind::Cycles];
        let mk = |fanout| {
            let reader = LimitReader::with_events(events.to_vec());
            let cfg = ProxyConfig {
                fanout,
                ..small_cfg()
            };
            let run = run(&cfg, &reader, 2, &events, KernelConfig::default()).unwrap();
            let records = run.session.all_records().unwrap();
            let v: Vec<u64> = records
                .iter()
                .filter(|(_, r)| r.region == run.image.regions.fanout)
                .map(|(_, r)| r.deltas[0])
                .collect();
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        let narrow = mk(1);
        let wide = mk(6);
        // Six sequential round-trips cost several times one round-trip
        // (not exactly 6x: different draws from the latency stream).
        assert!(wide > 3.0 * narrow, "wide {wide} vs narrow {narrow}");
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
