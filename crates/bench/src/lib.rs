//! Shared experiment drivers for the `exp_*` binaries and `limit-repro
//! run`. Each experiment in DESIGN.md §4 has a function here that
//! produces its table(s); the binaries and the CLI print them.

pub mod experiments;
pub mod json;
pub mod spans;

/// Re-export of the bounded worker pool, which moved to `sim_core::parallel`
/// so layers below `bench` (the fleet driver) can share it. The
/// `bench::parmap*` paths keep working.
pub use sim_core::parallel;

pub use experiments::*;
pub use parallel::{default_jobs, parmap, parmap_with};
