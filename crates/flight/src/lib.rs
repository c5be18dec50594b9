//! Machine-wide flight recorder.
//!
//! Every layer of the stack — the CPU model, the kernel, the LiMiT harness,
//! the telemetry pipeline — emits typed events ([`EventData`]) into per-core
//! bounded rings ([`Ring`]) owned by one [`FlightRecorder`]. The recorder
//! is zero-cost when off: the owning `Machine` holds an
//! `Option<Box<FlightRecorder>>` that is `None` by default, and every
//! emission site guards on that option before touching anything, so a
//! disabled recorder costs one branch on a cold pointer.
//!
//! Events carry the simulated clock of the core that produced them plus the
//! installed thread, and export two ways ([`export`]):
//!
//! * **NDJSON** — one compact record per event, streamed in per-core ring
//!   order (each core's stream is temporally ordered; no global order is
//!   claimed, because migration legitimately skews core clocks). Validated
//!   by [`export::check`], which enforces the event-conservation
//!   invariants (`limit-repro check-trace`).
//! * **Chrome trace-event JSON** — loadable in Perfetto / `chrome://tracing`:
//!   guest threads as tracks with region and syscall duration spans, PMIs /
//!   migrations / injections as instant events, in-range counter reads as
//!   counter tracks, core occupancy as a second process, and host-side bench
//!   spans as a third.

pub mod event;
pub mod export;
pub mod recorder;
pub mod ring;

pub use event::{Categories, EventData, FlightEvent};
pub use export::{check, chrome_trace, ndjson, CheckReport, HostSpan};
pub use recorder::{FlightConfig, FlightRecorder, RegionMark};
pub use ring::Ring;
