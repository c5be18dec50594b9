//! Deterministic blocking-I/O: per-device latency distributions and
//! serializing service queues.
//!
//! The model has three devices — `disk`, `net`, `fsync` — each with its own
//! latency distribution and its own [`DetRng`] stream (split from one I/O
//! seed by device index, so one device's request count never shifts another
//! device's latency draws). A thread submits a request with the `IoSubmit`
//! syscall and blocks; the kernel samples the service latency *at submit
//! time*, queues the request behind whatever the device is already serving
//! (one request in service at a time — concurrent requests serialize), and
//! puts the thread to sleep until the completion clock. Because the sample
//! is drawn in submit order and submit order is fixed by the deterministic
//! scheduler, the whole model is byte-identical across runs, across
//! `--jobs`, and across `ExecMode::SingleStep`/`Block` (blocked threads are
//! ordinary sleepers, which both execution modes already handle
//! identically).
//!
//! The observability contract: the kernel charges the wait cycles into the
//! thread's virtualized `Cycles` accumulator at wake (so the enclosing
//! instrumented region *sees* the wait, and once every region has exited,
//! per-region I/O-wait sums can never exceed per-region cycle sums —
//! mid-run the io record lands in the ring at wake, before the region's
//! exit record, so only *final* snapshots must conserve), and appends a
//! device-tagged record
//! into the thread's telemetry ring (see [`encode_io_region`]) so the
//! collector can aggregate per-region per-device wait histograms and slow
//! call counts.

use serde::{Deserialize, Serialize};
use sim_core::{DetRng, SimError, SimResult};
use std::collections::VecDeque;

/// Number of modelled devices.
pub const DEVICES: usize = 3;

/// Stable device names, indexed by device id (`IoSubmit`'s first argument).
pub const DEVICE_NAMES: [&str; DEVICES] = ["disk", "net", "fsync"];

/// Device id of the disk (block read/write) device.
pub const DEV_DISK: usize = 0;

/// Device id of the network (round-trip) device.
pub const DEV_NET: usize = 1;

/// Device id of the fsync (durability barrier) device.
pub const DEV_FSYNC: usize = 2;

/// A call is "slow I/O" when its wait exceeds this many cycles — 1 ms at
/// the simulated 2.5 GHz, the same wall-clock threshold renacer's slow-I/O
/// column uses. With the default fsync distribution (mean 2 M cycles) a
/// sizable fraction of commits land above it, so fsync-bound workloads are
/// guaranteed non-zero slow-call counts.
pub const SLOW_IO_CYCLES: u64 = 2_500_000;

/// One device's service-latency distribution: exponential with the given
/// mean, shifted to `min` and clamped at `max` (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyDist {
    /// Minimum service latency (the distribution's shift).
    pub min: u64,
    /// Mean service latency (exponential around `mean - min`, plus `min`).
    pub mean: u64,
    /// Hard latency cap (tail clamp).
    pub max: u64,
}

impl LatencyDist {
    /// Draws one service latency: `min + Exp(mean - min)`, clamped to
    /// `max`. Always at least `min + 1` (a zero-cycle service would let a
    /// device complete a request before it started).
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let extra = rng.exp_u64(self.mean.saturating_sub(self.min) as f64);
        (self.min + extra).min(self.max)
    }

    fn validate(&self, name: &str) -> SimResult<()> {
        if self.min == 0 || self.min > self.mean || self.mean > self.max {
            return Err(SimError::Config(format!(
                "io device {name}: latency bounds must satisfy 0 < min <= mean <= max, \
                 got min {} mean {} max {}",
                self.min, self.mean, self.max
            )));
        }
        Ok(())
    }
}

/// The full I/O parameter set: one latency distribution per device plus
/// the seed of the dedicated latency RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoParams {
    /// Disk read/write service latency.
    pub disk: LatencyDist,
    /// Network round-trip service latency.
    pub net: LatencyDist,
    /// Fsync (durable commit) service latency.
    pub fsync: LatencyDist,
    /// Seed of the latency streams (split per device).
    pub seed: u64,
}

impl Default for IoParams {
    fn default() -> Self {
        IoParams {
            // ~100 us mean disk op at 2.5 GHz.
            disk: LatencyDist {
                min: 50_000,
                mean: 250_000,
                max: 2_000_000,
            },
            // ~50 us mean in-datacenter network round trip.
            net: LatencyDist {
                min: 25_000,
                mean: 125_000,
                max: 1_000_000,
            },
            // ~800 us mean fsync: device flush plus journal write. Mean
            // sits below SLOW_IO_CYCLES but the exponential tail crosses it
            // often (P ≈ 30%), which is what makes "slow I/O" a count, not
            // an all-or-nothing flag.
            fsync: LatencyDist {
                min: 200_000,
                mean: 2_000_000,
                max: 16_000_000,
            },
            seed: 0x10_5EED,
        }
    }
}

impl IoParams {
    /// The distribution of device `d`, if `d` is a valid device id.
    pub fn device(&self, d: usize) -> Option<&LatencyDist> {
        match d {
            0 => Some(&self.disk),
            1 => Some(&self.net),
            2 => Some(&self.fsync),
            _ => None,
        }
    }

    /// Validates every device's latency bounds.
    pub fn validate(&self) -> SimResult<()> {
        self.disk.validate("disk")?;
        self.net.validate("net")?;
        self.fsync.validate("fsync")
    }
}

/// The bit marking a telemetry-ring record as a kernel-emitted I/O record
/// rather than a guest-emitted region-exit record.
pub const IO_RECORD_BIT: u64 = 1 << 63;

const IO_DEVICE_SHIFT: u64 = 60;
const IO_REGION_MASK: u64 = (1 << IO_DEVICE_SHIFT) - 1;

/// Encodes the region word of a kernel-emitted I/O ring record: the tag
/// bit, the device id in bits 60..63, the region id below.
pub fn encode_io_region(region: u64, device: usize) -> u64 {
    IO_RECORD_BIT | ((device as u64) << IO_DEVICE_SHIFT) | (region & IO_REGION_MASK)
}

/// Decodes a ring record's region word: `Some((region, device))` when the
/// word carries the I/O tag, `None` for ordinary region-exit records.
pub fn decode_io_region(word: u64) -> Option<(u64, usize)> {
    if word & IO_RECORD_BIT == 0 {
        return None;
    }
    let device = ((word >> IO_DEVICE_SHIFT) & 0x7) as usize;
    Some((word & IO_REGION_MASK, device))
}

/// Where the kernel appends a blocked thread's I/O record: the thread's
/// own SPSC telemetry ring, described host-side (the kernel cannot know
/// the harness's TLS layout). Registered per thread by the harness at
/// spawn (stream-mode sessions only).
#[derive(Debug, Clone, Copy)]
pub struct IoRing {
    /// Guest address of slot 0.
    pub base: u64,
    /// Guest address of the producer head word.
    pub head_addr: u64,
    /// Guest address of the consumer tail word.
    pub tail_addr: u64,
    /// Guest address of the dropped-record counter.
    pub dropped_addr: u64,
    /// Ring capacity in slots (power of two).
    pub capacity: u64,
    /// Event deltas per record.
    pub counters: usize,
    /// Full-ring policy: overwrite oldest vs drop newest.
    pub overwrite: bool,
}

/// A thread's outstanding blocking-I/O request (set at submit, taken at
/// the wake-side switch-in).
#[derive(Debug, Clone, Copy)]
pub struct PendingIo {
    /// Device id.
    pub device: usize,
    /// Submit clock (enqueue time).
    pub submitted: u64,
    /// Service start clock (after queueing behind earlier requests).
    pub start: u64,
    /// Completion clock (wake time).
    pub complete: u64,
    /// Region id the guest attributed the request to.
    pub region: u64,
}

/// What one submit resolved to.
#[derive(Debug, Clone, Copy)]
pub struct IoTicket {
    /// Service start clock: `max(now, device busy-until)`.
    pub start: u64,
    /// Completion clock: `start + sampled service latency`.
    pub complete: u64,
    /// Requests outstanding on the device after this enqueue (this request
    /// included).
    pub depth: u64,
}

/// Per-device lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoDeviceStats {
    /// Requests submitted.
    pub submits: u64,
    /// Total cycles threads waited on this device (queueing + service).
    pub wait_cycles: u64,
    /// Deepest queue observed at any enqueue.
    pub max_depth: u64,
}

#[derive(Debug)]
struct DeviceState {
    dist: LatencyDist,
    rng: DetRng,
    /// Completion clock of the last-queued request; the next request
    /// starts no earlier (one request in service at a time).
    busy_until: u64,
    /// Completion clocks of requests not yet complete at the last submit,
    /// ascending (service is FIFO). Pruned lazily against the submit
    /// clock; only used for queue-depth accounting.
    pending: VecDeque<u64>,
    stats: IoDeviceStats,
}

/// The kernel's I/O subsystem: three devices, each a serializing service
/// queue with a deterministic latency sampler.
#[derive(Debug)]
pub struct IoSubsystem {
    devices: Vec<DeviceState>,
}

impl IoSubsystem {
    /// Boots the subsystem from the parameter set. Call
    /// [`IoParams::validate`] first if the params are untrusted.
    pub fn new(params: &IoParams) -> Self {
        let mut root = DetRng::new(params.seed);
        let devices = (0..DEVICES)
            .map(|d| DeviceState {
                dist: *params.device(d).expect("d < DEVICES"),
                rng: root.split(d as u64 + 1),
                busy_until: 0,
                pending: VecDeque::new(),
                stats: IoDeviceStats::default(),
            })
            .collect();
        IoSubsystem { devices }
    }

    /// Submits one request to device `device` at clock `now`: samples the
    /// service latency, queues behind the device's outstanding work, and
    /// returns the resolved timeline. The caller blocks the thread until
    /// `ticket.complete`.
    ///
    /// # Panics
    ///
    /// Panics if `device >= DEVICES` (the syscall layer validates ids).
    pub fn submit(&mut self, device: usize, now: u64) -> IoTicket {
        let dev = &mut self.devices[device];
        while dev.pending.front().is_some_and(|&c| c <= now) {
            dev.pending.pop_front();
        }
        let service = dev.dist.sample(&mut dev.rng);
        let start = now.max(dev.busy_until);
        let complete = start + service;
        dev.busy_until = complete;
        dev.pending.push_back(complete);
        let depth = dev.pending.len() as u64;
        dev.stats.submits += 1;
        dev.stats.wait_cycles += complete - now;
        dev.stats.max_depth = dev.stats.max_depth.max(depth);
        IoTicket {
            start,
            complete,
            depth,
        }
    }

    /// Per-device lifetime totals, indexed by device id.
    pub fn stats(&self) -> [IoDeviceStats; DEVICES] {
        let mut out = [IoDeviceStats::default(); DEVICES];
        for (o, d) in out.iter_mut().zip(&self.devices) {
            *o = d.stats;
        }
        out
    }

    /// Total requests submitted across all devices.
    pub fn total_submits(&self) -> u64 {
        self.devices.iter().map(|d| d.stats.submits).sum()
    }

    /// Total wait cycles across all devices.
    pub fn total_wait_cycles(&self) -> u64 {
        self.devices.iter().map(|d| d.stats.wait_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let p = IoParams::default();
        let draw = |seed: u64| {
            let mut rng = DetRng::new(seed);
            (0..64)
                .map(|_| p.fsync.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn samples_respect_configured_bounds() {
        let d = LatencyDist {
            min: 1_000,
            mean: 5_000,
            max: 20_000,
        };
        let mut rng = DetRng::new(42);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!(s > d.min && s <= d.max, "sample {s} out of bounds");
        }
    }

    #[test]
    fn sample_mean_within_tolerance() {
        // Max far out so the clamp barely bites; the empirical mean must
        // land within 5% of the configured mean.
        let d = LatencyDist {
            min: 10_000,
            mean: 100_000,
            max: 10_000_000,
        };
        let mut rng = DetRng::new(0xA5);
        let n = 50_000u64;
        let sum: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        let err = (mean - d.mean as f64).abs() / d.mean as f64;
        assert!(err < 0.05, "empirical mean {mean} vs configured {}", d.mean);
    }

    #[test]
    fn device_streams_are_independent() {
        // Drawing from disk must not perturb fsync's stream.
        let p = IoParams::default();
        let mut a = IoSubsystem::new(&p);
        let mut b = IoSubsystem::new(&p);
        for i in 0..10 {
            a.submit(0, i * 1_000);
        }
        let ta = a.submit(2, 1_000_000);
        let tb = b.submit(2, 1_000_000);
        assert_eq!(ta.complete, tb.complete);
    }

    #[test]
    fn concurrent_requests_serialize_fifo() {
        let p = IoParams::default();
        let mut io = IoSubsystem::new(&p);
        // Three submits at the same instant: each starts where the
        // previous completes, depth counts the backlog.
        let t1 = io.submit(0, 100);
        let t2 = io.submit(0, 100);
        let t3 = io.submit(0, 100);
        assert_eq!(t1.start, 100);
        assert_eq!(t2.start, t1.complete);
        assert_eq!(t3.start, t2.complete);
        assert_eq!((t1.depth, t2.depth, t3.depth), (1, 2, 3));
        assert_eq!(io.stats()[0].max_depth, 3);
        // Much later, the queue has drained.
        let t4 = io.submit(0, t3.complete + 1);
        assert_eq!(t4.start, t3.complete + 1);
        assert_eq!(t4.depth, 1);
    }

    #[test]
    fn io_region_word_round_trips() {
        for device in 0..DEVICES {
            for region in [0u64, 1, 42, IO_REGION_MASK] {
                let w = encode_io_region(region, device);
                assert_eq!(decode_io_region(w), Some((region, device)));
            }
        }
        assert_eq!(decode_io_region(17), None, "plain region ids pass through");
    }

    #[test]
    fn params_validation_rejects_inverted_bounds() {
        assert!(IoParams::default().validate().is_ok());
        let mut p = IoParams::default();
        p.disk.min = 0;
        assert!(p.validate().is_err());
        let mut p = IoParams::default();
        p.net.mean = p.net.max + 1;
        assert!(p.validate().is_err());
        let mut p = IoParams::default();
        p.fsync.min = p.fsync.mean + 1;
        assert!(p.validate().is_err());
    }
}
