//! Fleet-scale simulation: open-loop load over thousands of guest
//! instances with hierarchical telemetry roll-up.
//!
//! One *instance* is a complete LiMiT session — its own [`sim_cpu`]
//! machine, kernel, and instrumented workload, streaming telemetry into
//! per-thread rings. A *fleet* is N such instances admitted by an
//! **open-loop** load generator: arrivals land on a virtual-cycle
//! timeline at a target rate regardless of whether the node keeps up, so
//! overload is representable (a closed-loop generator would throttle
//! itself and hide the knee).
//!
//! Determinism is the design constraint everything here bends around:
//!
//! * every instance derives its seed from the fleet seed **by index**
//!   (splitmix-style, [`instance_seed`]) — never by drawing from a shared
//!   RNG in worker order, which would tie results to host scheduling;
//! * the arrival process is drawn as a pre-pass on the host, before any
//!   worker runs ([`arrival`]);
//! * queueing (admission waits, sojourn latency, saturation) is a cheap
//!   deterministic post-pass over the arrival times and the instances'
//!   simulated run lengths ([`queue`]) — service time is a function of
//!   the instance seed alone, so the queue model never observes host
//!   parallelism;
//! * telemetry rolls up hierarchically — instance shards → node
//!   aggregates → fleet aggregate — through `Snapshot::merge`, which is
//!   associative and commutative, and node boundaries are deterministic
//!   instance-index chunks ([`driver`]).
//!
//! The result: `--jobs` changes wall-clock time only. The fleet
//! aggregate, the queue statistics, and the population findings are
//! byte-identical across any worker count.

pub mod arrival;
pub mod driver;
pub mod queue;

pub use arrival::{arrival_times, ArrivalConfig, ArrivalProcess};
pub use driver::{
    draw_arrivals, instance_seed, run_fleet, FleetConfig, FleetReport, InstanceResult,
    NodeAggregate, EVENTS, EVENT_NAMES,
};
pub use queue::{simulate as simulate_queue, QueueOutcome};
