//! The host-side collector: drains per-thread SPSC rings into one merged
//! view.
//!
//! The collector runs from the kernel's periodic drain hook, between guest
//! instructions — so within one drain every ring is quiescent and reads
//! are race-free by construction. After consuming `tail..head` it writes
//! the advanced tail back into the producer's TLS (the word the producer's
//! full check reads), like a DMA engine completing a descriptor.

use crate::aggregate::View;
use crate::snapshot::Snapshot;
use limit::harness::RingHandle;
use limit::report::Regions;
use limit::tls;
use limit::Session;
use sim_core::{SimResult, ThreadId};
use sim_cpu::Machine;
use sim_os::io::decode_io_region;

#[derive(Debug)]
struct RingState {
    handle: RingHandle,
    /// Host-cached consumer index (mirrors the guest TLS tail word).
    tail: u64,
    /// Producer head observed at the last drain.
    head_seen: u64,
    /// Producer drop count observed at the last drain.
    dropped: u64,
}

/// Drains registered rings into one merged view. Each record folds into
/// its region's row as it is drained, so a drain costs O(records drained);
/// a publish re-sorts the rows only when a record was folded since the
/// last one.
#[derive(Debug)]
pub struct Collector {
    view: View,
    rings: Vec<RingState>,
    drained: u64,
    overwritten: u64,
}

impl Collector {
    /// A collector for records of `counters` deltas. `stripes` only sizes
    /// the ring table: the expected number of rings (one per producer
    /// thread).
    pub fn new(stripes: usize, counters: usize) -> Self {
        Collector {
            view: View::new(counters),
            rings: Vec::with_capacity(stripes),
            drained: 0,
            overwritten: 0,
        }
    }

    /// Registers one ring for draining.
    pub fn register(&mut self, handle: RingHandle) {
        assert_eq!(
            handle.counters, self.view.counters,
            "ring delta count must match the collector's"
        );
        self.rings.push(RingState {
            handle,
            tail: 0,
            head_seen: 0,
            dropped: 0,
        });
    }

    /// Registers every ring of a stream-mode session (spawn order).
    pub fn attach(&mut self, session: &Session) {
        for h in session.ring_handles() {
            self.register(h);
        }
    }

    /// Drains every registered ring into the view. Returns the number of
    /// records consumed.
    pub fn drain(&mut self, machine: &mut Machine) -> SimResult<u64> {
        self.drain_with(machine, |_, _, _| {})
    }

    /// [`Collector::drain`], additionally passing every record to
    /// `visit(tid, region, deltas)` in drain order (tests and custom
    /// sinks).
    pub fn drain_with<F>(&mut self, machine: &mut Machine, mut visit: F) -> SimResult<u64>
    where
        F: FnMut(ThreadId, u64, &[u64]),
    {
        let view = &mut self.view;
        let mut total = 0u64;
        let mut overwritten = 0u64;
        let mut deltas = [0u64; tls::MAX_COUNTERS];
        for state in &mut self.rings {
            let h = state.handle;
            let mem = &mut machine.mem;
            let head = mem.read_u64(h.tls_base + tls::RING_HEAD as u64)?;
            state.dropped = mem.read_u64(h.tls_base + tls::DROPPED as u64)?;
            state.head_seen = head;
            let mut tail = state.tail;
            if h.overwrite && head - tail > h.capacity {
                // The producer lapped us: the oldest head - tail - capacity
                // records are gone. Account them and start at the oldest
                // surviving record.
                let over = head - tail - h.capacity;
                overwritten += over;
                tail += over;
            }
            let slot_size = tls::ring_slot_size(h.counters);
            while tail < head {
                let addr = h.ring_base + (tail & (h.capacity - 1)) * slot_size;
                let region = mem.read_u64(addr)?;
                for (i, d) in deltas.iter_mut().enumerate().take(h.counters) {
                    *d = mem.read_u64(addr + 8 * (1 + i as u64))?;
                }
                // Kernel-emitted I/O records are tagged in the region word;
                // delta 0 carries the wait cycles. They fold into the
                // region's per-device I/O stats, not its exit stats.
                match decode_io_region(region) {
                    Some((rid, device)) => view.fold_io(rid, device, deltas[0]),
                    None => view.fold(region, &deltas[..h.counters]),
                }
                visit(h.tid, region, &deltas[..h.counters]);
                tail += 1;
                total += 1;
            }
            state.tail = tail;
            // Publish the consumer index back to the producer's TLS.
            mem.write_u64(h.tls_base + tls::RING_TAIL as u64, tail)?;
        }
        self.drained += total;
        self.overwritten += overwritten;
        Ok(total)
    }

    /// Records consumed across all drains.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Records appended by producers, as of the last drain (sum of ring
    /// heads).
    pub fn appended(&self) -> u64 {
        self.rings.iter().map(|r| r.head_seen).sum()
    }

    /// Records producers dropped to full rings, as of the last drain.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Records lost to producer overwrites (overwrite-policy rings only).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The collector's own view, brought up to date and stamped with
    /// `seq`, `cycle` and the transport counters, region ids resolved
    /// against `regions`. Lent, not copied: this is the per-tick serving
    /// path. Costs what changed since the last publish: the rows are
    /// re-sorted only if a record was folded, and only regions still
    /// unnamed are looked up.
    pub fn publish(&mut self, seq: u64, cycle: u64, regions: &Regions) -> &Snapshot {
        self.view.settle(regions);
        let (appended, dropped) = (self.appended(), self.dropped());
        let snap = &mut self.view.snap;
        snap.seq = seq;
        snap.cycle = cycle;
        snap.appended = appended;
        snap.drained = self.drained;
        snap.dropped = dropped;
        snap.overwritten = self.overwritten;
        snap
    }

    /// An owned copy of what [`Collector::publish`] would return, leaving
    /// the collector untouched.
    pub fn snapshot(&self, seq: u64, cycle: u64, regions: &Regions) -> Snapshot {
        Snapshot {
            seq,
            cycle,
            appended: self.appended(),
            drained: self.drained,
            dropped: self.dropped(),
            overwritten: self.overwritten,
            regions: self.view.settled_rows(regions),
        }
    }
}
