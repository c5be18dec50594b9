//! Synthetic application workloads for the reproduction's case studies.
//!
//! Each workload emits guest code parameterized by a
//! [`limit::CounterReader`], so the same application can be run
//! uninstrumented, LiMiT-instrumented, perf-instrumented, PAPI-
//! instrumented, or under the sampling profiler — the comparison the
//! paper's overhead and precision experiments make.
//!
//! * [`locks`] — glibc-style futex mutexes in guest code (atomic fast
//!   path, `futex` slow path); every application lock is built on these.
//! * [`prng`] — a guest-side LCG for data-dependent control flow and
//!   address generation (deterministic per seed).
//! * [`kernels`] — kernels with *statically known* event counts, the
//!   ground truth for the correctness experiments (E3/E4).
//! * [`microbench`] — the read-cost microbenchmark behind the paper's
//!   headline table (E1).
//! * [`mysqld`] — a MySQL-like storage-engine skeleton: worker threads,
//!   table locks, a buffer-pool mutex, a log mutex (E2/E6/E7).
//! * [`firefox`] — an event-loop application with short heterogeneous
//!   tasks and helper threads (E5/E8).
//! * [`apache`] — a request-per-thread web server with per-request phases
//!   (E9).
//! * [`logstore`] — a log-structured store with fsync-bound commits
//!   (E18).
//! * [`proxy`] — a scatter-gather proxy doing blocking network fan-out
//!   (E18).
//!
//! [`registry`] names the six applications above and is the one place the
//! CLI surfaces (`monitor`, `fleet`, `whatif`, `trace`, `stat`) look a
//! workload up, shape it and build its session.

pub mod apache;
pub mod firefox;
pub mod kernels;
pub mod locks;
pub mod logstore;
pub mod memcached;
pub mod microbench;
pub mod mysqld;
pub mod prng;
pub mod proxy;
pub mod registry;
pub mod suite;

pub use registry::Workload;

use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::LogMode;
use sim_core::SimResult;
use sim_cpu::{Asm, EventKind, MemLayout};

/// The session half every application's `build` shares: `emit` writes
/// the guest program into a fresh assembler, layout and region table;
/// the builder gets the counter events, the layout and the per-thread
/// storage `mode` needs (record log, aggregate table or stream ring);
/// the session keeps the region names. The caller spawns the threads.
fn assemble<I>(
    builder: SessionBuilder,
    events: &[EventKind],
    mode: LogMode,
    emit: impl FnOnce(&mut Asm, &mut MemLayout, &mut Regions) -> SimResult<I>,
) -> SimResult<(Session, I)> {
    let mut layout = MemLayout::default();
    let mut regions = Regions::new();
    let mut asm = Asm::new();
    let image = emit(&mut asm, &mut layout, &mut regions)?;
    let builder = builder.events(events).with_layout(layout);
    let builder = match mode {
        LogMode::Log => builder,
        LogMode::Aggregate => builder.aggregate_regions(regions.len()),
        LogMode::Stream(stream_cfg) => builder.stream(stream_cfg),
    };
    let mut session = builder.build(asm)?;
    session.regions = regions;
    Ok((session, image))
}
