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
//! * **Aggregation** — drained records fold into sharded online
//!   aggregators ([`AggShard`], one per collector stripe): per-region
//!   count plus a log₂-bucketed [`sim_core::Histogram`] per event kind,
//!   O(1) per record with no per-record allocation. Shards merge on
//!   demand; merging is associative and commutative.
//! * **Serving** — [`Snapshot`]s taken at every drain tick expose the
//!   merged view (plus transport accounting: appended / drained / dropped
//!   / overwritten) to renderers, the NDJSON writer in the CLI, and the
//!   online bottleneck detectors in `analysis::online`.
//!
//! [`run_streaming`] ties the pieces together for a whole session.

pub mod aggregate;
pub mod collector;
pub mod runner;
pub mod snapshot;

pub use aggregate::{AggShard, IoStat, RegionStats};
pub use collector::Collector;
pub use runner::{run_collected, run_streaming, run_streaming_until, CollectedRun};
pub use snapshot::{RegionSnapshot, Snapshot};
