//! Live telemetry: the "always-on profiling" layer.
//!
//! The paper's reads are cheap enough to wrap around every critical
//! section, but the seed reproduction still buffered `(region, deltas...)`
//! records into a per-thread log drained only *after* the run — so
//! long-running workloads either truncate or hold unbounded memory. This
//! crate closes that gap with a streaming pipeline whose memory is bounded
//! by ring capacity regardless of run length:
//!
//! * **Transport** — guest threads append records to per-thread SPSC rings
//!   (emitted by `limit::Instrumenter::emit_exit_stream`, laid out by
//!   `limit::harness::SessionBuilder::stream`); the host-side
//!   [`Collector`] drains them *mid-run* from the kernel's periodic drain
//!   hook ([`sim_os::Kernel::run_with_hook`]), writing the consumer index
//!   back into guest TLS like a DMA engine.
//! * **Aggregation** — the collector keeps one incremental view: each
//!   drained record folds straight into its region's row (exit count plus
//!   a log₂-bucketed [`sim_core::Histogram`] per event kind, and
//!   per-device [`IoStat`]s), O(1) per record with no per-record
//!   allocation. A drain tick costs O(records drained), not O(threads ×
//!   regions).
//! * **Serving** — at every drain tick [`Collector::publish`] brings the
//!   view up to date (re-sorting its rows only if a record was folded,
//!   naming only rows still unnamed), stamps the transport accounting
//!   (appended / drained / dropped / overwritten) and lends it as a
//!   [`Snapshot`] to renderers, the NDJSON writer in the CLI, and the
//!   online bottleneck detectors in `analysis::online`.
//!   [`Collector::snapshot`] is the owned copy; fleet instances and
//!   what-if arms take exactly one, at the end ([`run_collected`]).
//!
//! [`run_streaming`] ties the pieces together for a whole session.

pub mod aggregate;
pub mod collector;
pub mod runner;
pub mod snapshot;

pub use aggregate::IoStat;
pub use collector::Collector;
pub use runner::{run_collected, run_streaming, run_streaming_until, CollectedRun};
pub use snapshot::{RegionSnapshot, Snapshot};
