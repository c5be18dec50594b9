//! Incremental aggregation of drained telemetry records.
//!
//! The collector keeps one merged [`View`]: a row table of
//! [`RegionSnapshot`]s, one per region id, that every drained record folds
//! into in O(1) with no per-record allocation (a row is allocated once, on
//! its region's first record). Publishing the view costs what changed since
//! the last publish: rows are re-sorted into the canonical order only when a
//! record was folded, and names are looked up only for rows still carrying
//! the `#id` placeholder. `tests/view_props.rs` checks the view against a
//! from-scratch fold of the same record stream after every drain.

use crate::snapshot::{canonical_order, RegionSnapshot, Snapshot};
use limit::report::Regions;
use sim_core::{FxHashMap, Histogram};
use sim_os::io::SLOW_IO_CYCLES;

/// Per-device blocking-I/O statistics attributed to one region: a
/// log₂-bucketed wait-latency histogram (call count and wait-cycle sum
/// included) plus the count of calls whose wait crossed the slow-I/O
/// threshold ([`SLOW_IO_CYCLES`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IoStat {
    /// Device id (index into `sim_os::io::DEVICE_NAMES`).
    pub device: usize,
    /// Wait-cycle distribution across the region's calls to this device.
    pub hist: Histogram,
    /// Calls whose wait exceeded the slow-I/O threshold.
    pub slow_calls: u64,
}

impl IoStat {
    /// Blocking calls folded in.
    pub fn calls(&self) -> u64 {
        self.hist.count()
    }

    /// Total wait cycles folded in.
    pub fn wait_sum(&self) -> u64 {
        self.hist.sum() as u64
    }
}

/// Merges per-device I/O stats keyed by device id (the snapshot roll-up;
/// keeps the vec sorted by device).
pub fn merge_io_stats(ours: &mut Vec<IoStat>, theirs: &[IoStat]) {
    for t in theirs {
        match ours.iter_mut().find(|s| s.device == t.device) {
            Some(s) => {
                s.hist.merge(&t.hist);
                s.slow_calls += t.slow_calls;
            }
            None => ours.push(t.clone()),
        }
    }
    ours.sort_by_key(|s| s.device);
}

/// The collector's merged view: every drained record folded into one row
/// per region.
#[derive(Debug)]
pub(crate) struct View {
    /// Event deltas per record.
    pub(crate) counters: usize,
    /// The view itself. Its rows (one per region id) are in canonical order
    /// as of the last [`View::settle`]; rows first seen since then are
    /// appended at the end. The collector stamps the transport counters.
    pub(crate) snap: Snapshot,
    /// Region id → index of its row in `snap.regions`.
    index: FxHashMap<u64, usize>,
    /// Ids whose rows still carry the `#id` placeholder name.
    unnamed: Vec<u64>,
    /// Whether a record was folded since the last settle.
    dirty: bool,
}

impl View {
    /// An empty view for records carrying `counters` event deltas.
    pub(crate) fn new(counters: usize) -> Self {
        View {
            counters,
            snap: Snapshot::empty(),
            index: FxHashMap::default(),
            unnamed: Vec::new(),
            dirty: false,
        }
    }

    fn row(&mut self, id: u64) -> &mut RegionSnapshot {
        self.dirty = true;
        let i = match self.index.get(&id) {
            Some(&i) => i,
            None => self.add_row(id),
        };
        &mut self.snap.regions[i]
    }

    #[cold]
    fn add_row(&mut self, id: u64) -> usize {
        let i = self.snap.regions.len();
        self.snap.regions.push(RegionSnapshot {
            id,
            name: format!("#{id}"),
            count: 0,
            events: vec![Histogram::new(); self.counters],
            io: Vec::new(),
        });
        self.index.insert(id, i);
        self.unnamed.push(id);
        i
    }

    /// Folds one region-exit record.
    pub(crate) fn fold(&mut self, region: u64, deltas: &[u64]) {
        debug_assert_eq!(deltas.len(), self.counters);
        let row = self.row(region);
        row.count += 1;
        for (h, &d) in row.events.iter_mut().zip(deltas) {
            h.record(d);
        }
    }

    /// Folds one kernel-emitted I/O wait record: `wait` cycles spent
    /// blocked on `device`, attributed to `region`. Does not bump the
    /// region's exit count — I/O records ride alongside exit records.
    pub(crate) fn fold_io(&mut self, region: u64, device: usize, wait: u64) {
        let io = &mut self.row(region).io;
        let at = match io.binary_search_by_key(&device, |s| s.device) {
            Ok(at) => at,
            Err(at) => {
                io.insert(
                    at,
                    IoStat {
                        device,
                        hist: Histogram::new(),
                        slow_calls: 0,
                    },
                );
                at
            }
        };
        io[at].hist.record(wait);
        if wait > SLOW_IO_CYCLES {
            io[at].slow_calls += 1;
        }
    }

    /// Brings the view up to date: resolves placeholder names against
    /// `regions` and, if a record was folded since the last settle,
    /// restores the canonical row order.
    pub(crate) fn settle(&mut self, regions: &Regions) {
        let (rows, index) = (&mut self.snap.regions, &self.index);
        self.unnamed.retain(|&id| match defined(regions, id) {
            Some(name) => {
                rows[index[&id]].name = name.to_string();
                false
            }
            None => true,
        });
        if self.dirty {
            self.dirty = false;
            let rows = &mut self.snap.regions;
            if !rows.is_sorted_by(|a, b| canonical_order(a, b).is_le()) {
                rows.sort_unstable_by(canonical_order);
                for (i, r) in rows.iter().enumerate() {
                    self.index.insert(r.id, i);
                }
            }
        }
    }

    /// A settled copy of the rows, leaving the view itself untouched.
    pub(crate) fn settled_rows(&self, regions: &Regions) -> Vec<RegionSnapshot> {
        let mut rows = self.snap.regions.clone();
        for &id in &self.unnamed {
            if let Some(name) = defined(regions, id) {
                rows[self.index[&id]].name = name.to_string();
            }
        }
        if self.dirty {
            rows.sort_unstable_by(canonical_order);
        }
        rows
    }
}

/// The name `regions` defines for region `id`, if any (`Regions::name`
/// reads `?` for an undefined id).
fn defined(regions: &Regions, id: u64) -> Option<&str> {
    match regions.name(id) {
        "?" => None,
        name => Some(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_io_tracks_slow_calls_separately_from_exits() {
        let mut v = View::new(1);
        v.fold(3, &[100]);
        v.fold_io(3, 2, SLOW_IO_CYCLES + 1);
        v.fold_io(3, 2, 10);
        v.fold_io(3, 0, 20);
        let r = &v.snap.regions[0];
        assert_eq!(r.count, 1, "io records do not bump the exit count");
        assert_eq!(r.io.len(), 2);
        assert_eq!(r.io[0].device, 0);
        assert_eq!(r.io[1].device, 2);
        assert_eq!(r.io[1].calls(), 2);
        assert_eq!(r.io[1].wait_sum(), SLOW_IO_CYCLES + 11);
        assert_eq!(r.io[1].slow_calls, 1);
        assert_eq!(r.io[0].slow_calls, 0);
    }
}
