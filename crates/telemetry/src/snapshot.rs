//! Point-in-time views of the aggregated telemetry stream.
//!
//! A [`Snapshot`] is what the pipeline serves: per-region streaming stats
//! (count plus per-event histograms) and transport accounting. The
//! invariant `appended == drained + dropped + overwritten + in_flight`
//! holds at every snapshot; after a final drain `in_flight` is zero.

use crate::aggregate::{merge_io_stats, IoStat};
use sim_core::Histogram;
use std::cmp::Ordering;

/// One region's aggregated view inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSnapshot {
    /// Region id.
    pub id: u64,
    /// Resolved name, or `#id` when unnamed.
    pub name: String,
    /// Region exits drained so far.
    pub count: u64,
    /// Per-event delta histograms (count/sum/min/max/log₂ buckets),
    /// indexed like the session's event set.
    pub events: Vec<Histogram>,
    /// Per-device blocking-I/O waits (sparse, sorted by device; empty for
    /// regions that never block).
    pub io: Vec<IoStat>,
}

impl RegionSnapshot {
    /// Total of event `i`'s deltas.
    pub fn event_sum(&self, i: usize) -> u64 {
        self.events.get(i).map_or(0, |h| h.sum() as u64)
    }

    /// Mean of event `i`'s deltas, or 0 when empty.
    pub fn event_mean(&self, i: usize) -> f64 {
        self.events.get(i).and_then(|h| h.mean()).unwrap_or(0.0)
    }

    /// Total wait cycles across all devices.
    pub fn io_wait_sum(&self) -> u64 {
        self.io.iter().map(IoStat::wait_sum).sum()
    }

    /// Total blocking calls across all devices.
    pub fn io_calls(&self) -> u64 {
        self.io.iter().map(IoStat::calls).sum()
    }

    /// Total slow calls across all devices.
    pub fn io_slow_calls(&self) -> u64 {
        self.io.iter().map(|s| s.slow_calls).sum()
    }
}

/// The canonical row order of a snapshot: descending event-0 sum, then
/// ascending id (ids are unique, so the order is total).
pub(crate) fn canonical_order(a: &RegionSnapshot, b: &RegionSnapshot) -> Ordering {
    b.event_sum(0).cmp(&a.event_sum(0)).then(a.id.cmp(&b.id))
}

/// A point-in-time view of the telemetry pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotone snapshot number (1-based; the final post-run snapshot is
    /// the largest).
    pub seq: u64,
    /// Frontier cycle when the snapshot was taken.
    pub cycle: u64,
    /// Records appended by producers (sum of ring heads at the last
    /// drain).
    pub appended: u64,
    /// Records consumed by the collector.
    pub drained: u64,
    /// Records producers dropped to full rings (drop policy).
    pub dropped: u64,
    /// Records lost to producer laps (overwrite policy).
    pub overwritten: u64,
    /// Per-region stats, descending by event-0 sum.
    pub regions: Vec<RegionSnapshot>,
}

impl Snapshot {
    /// Sum of event `i` across all regions.
    pub fn total_event(&self, i: usize) -> u64 {
        self.regions.iter().map(|r| r.event_sum(i)).sum()
    }

    /// Looks up a region row by name.
    pub fn region(&self, name: &str) -> Option<&RegionSnapshot> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Records appended but not yet drained or lost.
    pub fn in_flight(&self) -> u64 {
        self.appended
            .saturating_sub(self.drained + self.overwritten)
    }

    /// Merges another snapshot into this one — the roll-up operation of
    /// the fleet hierarchy (per-instance shards → node aggregates → fleet
    /// aggregate).
    ///
    /// Semantics: transport counters (`appended`/`drained`/`dropped`/
    /// `overwritten`) add, so the conservation invariant
    /// `appended == drained + overwritten + in_flight` is preserved —
    /// `in_flight` is derived, and a sum of per-shard invariants is the
    /// merged invariant. `seq` and `cycle` take the maximum (the frontier
    /// of the most-advanced shard). Regions merge by id — counts add,
    /// per-event histograms merge — and the merged rows are re-sorted into
    /// the canonical order (descending event-0 sum, then ascending id), so
    /// the result is independent of merge order. Merging assumes both
    /// snapshots come from sessions sharing one region registry (same
    /// workload build); on an id collision with differing names, `self`'s
    /// name wins.
    ///
    /// The operation is associative and commutative (property-tested in
    /// `tests/snapshot_merge_props.rs` against a flat single-aggregate
    /// reference), which is what makes the shard → node → fleet roll-up
    /// order-independent: any partition of instances over any worker
    /// assignment produces the identical fleet aggregate.
    pub fn merge(&mut self, other: &Snapshot) {
        self.seq = self.seq.max(other.seq);
        self.cycle = self.cycle.max(other.cycle);
        self.appended += other.appended;
        self.drained += other.drained;
        self.dropped += other.dropped;
        self.overwritten += other.overwritten;
        for theirs in &other.regions {
            match self.regions.iter_mut().find(|r| r.id == theirs.id) {
                Some(ours) => {
                    ours.count += theirs.count;
                    // Event sets match by construction; tolerate a longer
                    // incoming vector by extending with its tail.
                    for (h, o) in ours.events.iter_mut().zip(&theirs.events) {
                        h.merge(o);
                    }
                    if theirs.events.len() > ours.events.len() {
                        ours.events
                            .extend(theirs.events[ours.events.len()..].iter().cloned());
                    }
                    merge_io_stats(&mut ours.io, &theirs.io);
                }
                None => self.regions.push(theirs.clone()),
            }
        }
        self.regions.sort_by(canonical_order);
    }

    /// An empty snapshot — the identity element of [`Snapshot::merge`].
    pub fn empty() -> Snapshot {
        Snapshot {
            seq: 0,
            cycle: 0,
            appended: 0,
            drained: 0,
            dropped: 0,
            overwritten: 0,
            regions: Vec::new(),
        }
    }

    /// Renders a fixed-width table of the snapshot (one row per region,
    /// `event_names` labelling the delta columns by their mean). When any
    /// region carries blocking-I/O stats, two extra columns render: total
    /// I/O wait cycles and the renacer-style "Slow I/O" call count —
    /// existing non-I/O outputs stay byte-identical.
    pub fn render(&self, event_names: &[&str]) -> String {
        let mut out = format!(
            "snapshot #{} @ cycle {} | drained {} dropped {} overwritten {} in-flight {}\n",
            self.seq,
            self.cycle,
            self.drained,
            self.dropped,
            self.overwritten,
            self.in_flight()
        );
        let has_io = self.regions.iter().any(|r| !r.io.is_empty());
        out.push_str(&format!("{:<22} {:>8}", "region", "count"));
        for n in event_names {
            out.push_str(&format!(" {:>14}", format!("mean {n}")));
        }
        if has_io {
            out.push_str(&format!(" {:>14} {:>8}", "io wait", "slow io"));
        }
        out.push('\n');
        for r in &self.regions {
            out.push_str(&format!("{:<22} {:>8}", r.name, r.count));
            for i in 0..event_names.len() {
                out.push_str(&format!(" {:>14.1}", r.event_mean(i)));
            }
            if has_io {
                out.push_str(&format!(
                    " {:>14} {:>8}",
                    r.io_wait_sum(),
                    r.io_slow_calls()
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(name: &str, count: u64, deltas: &[u64]) -> RegionSnapshot {
        let mut h = Histogram::new();
        for &d in deltas {
            h.record(d);
        }
        RegionSnapshot {
            id: 0,
            name: name.to_string(),
            count,
            events: vec![h],
            io: Vec::new(),
        }
    }

    #[test]
    fn accounting_and_lookup() {
        let s = Snapshot {
            seq: 2,
            cycle: 100,
            appended: 10,
            drained: 6,
            dropped: 1,
            overwritten: 1,
            regions: vec![region("a.acq", 3, &[5, 10, 15]), region("b", 3, &[1, 2, 3])],
        };
        assert_eq!(s.in_flight(), 3);
        assert_eq!(s.total_event(0), 36);
        assert_eq!(s.region("a.acq").unwrap().event_sum(0), 30);
        assert!(s.region("nope").is_none());
        let txt = s.render(&["cycles"]);
        assert!(txt.contains("a.acq"));
        assert!(txt.contains("mean cycles"));
    }

    #[test]
    fn merge_sums_transport_and_preserves_invariant() {
        let mut a = Snapshot {
            seq: 3,
            cycle: 500,
            appended: 10,
            drained: 8,
            dropped: 1,
            overwritten: 1,
            regions: vec![region("x", 4, &[100, 200])],
        };
        let mut y = region("y", 3, &[10, 20, 30]);
        y.id = 9;
        let b = Snapshot {
            seq: 1,
            cycle: 900,
            appended: 6,
            drained: 5,
            dropped: 0,
            overwritten: 0,
            regions: vec![region("x", 2, &[50]), y],
        };
        let in_flight_sum = a.in_flight() + b.in_flight();
        a.merge(&b);
        assert_eq!(a.seq, 3);
        assert_eq!(a.cycle, 900);
        assert_eq!(a.appended, 16);
        assert_eq!(a.drained, 13);
        assert_eq!(a.in_flight(), in_flight_sum);
        // Both "x" rows folded into one (shared id); "y" kept separate.
        let x = a.region("x").unwrap();
        assert_eq!(x.count, 6);
        assert_eq!(x.event_sum(0), 350);
        assert_eq!(a.region("y").unwrap().count, 3);
    }

    #[test]
    fn merge_with_empty_is_identity_and_commutes() {
        let mut a = Snapshot {
            seq: 2,
            cycle: 100,
            appended: 5,
            drained: 5,
            dropped: 0,
            overwritten: 0,
            regions: vec![region("r", 5, &[1, 2, 4, 8, 16])],
        };
        let orig = a.clone();
        a.merge(&Snapshot::empty());
        assert_eq!(a, orig);
        let mut e = Snapshot::empty();
        e.merge(&orig);
        assert_eq!(e, orig);
    }

    #[test]
    fn merge_keeps_regions_in_canonical_order() {
        let mut small = region("small", 1, &[5]);
        small.id = 1;
        let mut big = region("big", 1, &[1_000]);
        big.id = 2;
        let mut a = Snapshot {
            regions: vec![small],
            ..Snapshot::empty()
        };
        let b = Snapshot {
            regions: vec![big],
            ..Snapshot::empty()
        };
        a.merge(&b);
        let names: Vec<&str> = a.regions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["big", "small"]);
    }
}
