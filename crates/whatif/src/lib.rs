//! Causal what-if engine: bottleneck attribution via differential
//! re-simulation with perturbed machine parameters.
//!
//! Telemetry says *where* cycles go; this crate says *why*. Given a
//! workload, the engine runs a baseline plus one arm per machine [`Knob`]
//! (atomic penalty, LLC/DRAM latency, syscall cost, …), each arm scaling
//! exactly one cost by a configurable factor while keeping the same seed
//! and the same deterministic scheduler. Diffing each arm's per-region
//! telemetry [`Snapshot`](telemetry::Snapshot) against the baseline yields
//! a per-region *sensitivity* — extra region cycles per extra cycle of
//! knob cost — and the knob a region is most sensitive to names the
//! resource it is actually bound on ("`mysql.bufpool.acq`: 8.2 to
//! atomic-penalty, 1.1 to llc-latency → lock-bound, not memory-bound").
//!
//! The fan-out uses the bounded host pool and the diff phase runs after
//! all arms complete, so reports are byte-identical across `--jobs`
//! (INTERNALS.md §13 has the full determinism contract and the
//! sensitivity math).

pub mod engine;
pub mod knob;

pub use engine::{
    run_whatif, ArmResult, RegionSensitivity, WhatifConfig, WhatifReport, EVENTS, EVENT_NAMES,
};
pub use knob::Knob;
pub use limit::MachineParams;
