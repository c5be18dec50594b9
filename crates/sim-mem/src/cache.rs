//! A single set-associative cache array with true-LRU replacement.

use crate::{line_of, LINE_BYTES};
use serde::{Deserialize, Serialize};
use sim_core::{SimError, SimResult};

/// Geometry of one cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `ways * 64`.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a config with the given capacity in kibibytes.
    pub const fn kib(kib: u64, ways: usize) -> Self {
        CacheConfig {
            size_bytes: kib * 1024,
            ways,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways as u64)
    }

    /// Validates that the geometry is realizable.
    pub fn validate(&self) -> SimResult<()> {
        if self.ways == 0 {
            return Err(SimError::Config("cache must have at least 1 way".into()));
        }
        if self.size_bytes == 0
            || !self
                .size_bytes
                .is_multiple_of(LINE_BYTES * self.ways as u64)
        {
            return Err(SimError::Config(format!(
                "cache size {} is not a multiple of ways({}) * line({})",
                self.size_bytes, self.ways, LINE_BYTES
            )));
        }
        if !self.sets().is_power_of_two() {
            return Err(SimError::Config(format!(
                "cache set count {} must be a power of two",
                self.sets()
            )));
        }
        Ok(())
    }
}

/// One cache way within a set.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Line-aligned address; [`Way::INVALID`] when empty. Real lines are
    /// always multiples of the 64-byte line size, so a non-multiple is a
    /// safe sentinel and the hit scan stays a plain integer compare.
    line: u64,
    /// LRU stamp: larger = more recently used.
    lru: u64,
    dirty: bool,
}

impl Way {
    const INVALID: u64 = u64::MAX;
}

impl Default for Way {
    fn default() -> Self {
        Way {
            line: Way::INVALID,
            lru: 0,
            dirty: false,
        }
    }
}

/// Outcome of a cache lookup-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the line was present before the access.
    pub hit: bool,
    /// Line-aligned address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
    /// Line-aligned address of any line (clean or dirty) evicted.
    pub evicted: Option<u64>,
}

/// A set-associative cache with LRU replacement.
///
/// The cache stores only line presence and dirtiness — data contents live in
/// guest memory; this is a timing/event model, not a value model.
///
/// Sets are materialised on first touch: building a cache reserves the way
/// array without writing it, and [`Cache::access`] appends a set's ways the
/// first time that set is used. A short session therefore pays for the sets
/// it touches, not for the whole geometry.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Ways of the materialised sets, flattened in first-touch order: the set
    /// with slot `k` occupies `ways[(k-1)*w .. k*w]`.
    ways: Vec<Way>,
    /// Per-set 1-based slot into `ways`; 0 means the set is untouched since
    /// construction or the last [`Cache::flush`].
    slot: Vec<u32>,
    /// `sets() - 1`, precomputed — set selection is a shift-and-mask, not
    /// a division, on the per-access path.
    set_mask: u64,
    /// Per-set way index of the most recent hit or fill. A repeat access to
    /// that way short-circuits the scan and skips the LRU stamp write: the
    /// way is already the set's most-recent, so re-stamping cannot change
    /// the replacement order.
    mru: Vec<u8>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from a validated config. O(sets): the way array is
    /// reserved, not written.
    pub fn new(config: CacheConfig) -> SimResult<Self> {
        config.validate()?;
        let sets = config.sets() as usize;
        Ok(Cache {
            set_mask: config.sets() - 1,
            ways: Vec::with_capacity(sets * config.ways),
            slot: vec![0; sets],
            mru: vec![0; sets],
            config,
            stamp: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        ((line / LINE_BYTES) & self.set_mask) as usize
    }

    /// Start of set `set_idx` in `ways`, or `None` if it is untouched.
    #[inline]
    fn base(&self, set_idx: usize) -> Option<usize> {
        match self.slot[set_idx] {
            0 => None,
            k => Some((k as usize - 1) * self.config.ways),
        }
    }

    /// Appends empty ways for the untouched set `set_idx`; returns its base.
    #[cold]
    fn materialise(&mut self, set_idx: usize) -> usize {
        let base = self.ways.len();
        self.ways.resize(base + self.config.ways, Way::default());
        self.slot[set_idx] = (base / self.config.ways) as u32 + 1;
        base
    }

    /// Looks up `addr`, filling the line on miss. Returns hit/miss and any
    /// eviction. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
        let line = line_of(addr);
        let set_idx = self.set_index(line);
        let w = self.config.ways;
        let base = match self.base(set_idx) {
            Some(base) => base,
            None => self.materialise(set_idx),
        };

        // Most-recently-used fast path: a repeat access to the set's MRU
        // way needs no scan and no LRU stamp (it is already most-recent;
        // re-stamping cannot reorder replacement).
        let mru = self.mru[set_idx] as usize;
        if mru < w && self.ways[base + mru].line == line {
            self.ways[base + mru].dirty |= write;
            self.hits += 1;
            return Lookup {
                hit: true,
                writeback: None,
                evicted: None,
            };
        }

        self.stamp += 1;
        let stamp = self.stamp;
        let set = &mut self.ways[base..base + w];

        if let Some((i, way)) = set.iter_mut().enumerate().find(|(_, w)| w.line == line) {
            way.lru = stamp;
            way.dirty |= write;
            self.mru[set_idx] = i as u8;
            self.hits += 1;
            return Lookup {
                hit: true,
                writeback: None,
                evicted: None,
            };
        }

        self.misses += 1;
        // Prefer an invalid way; otherwise evict the LRU way.
        let vi = match set.iter().position(|w| w.line == Way::INVALID) {
            Some(i) => i,
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("sets always have at least one way"),
        };
        let victim = &mut set[vi];
        let evicted = (victim.line != Way::INVALID).then_some(victim.line);
        let writeback = if victim.dirty { evicted } else { None };
        victim.line = line;
        victim.lru = stamp;
        victim.dirty = write;
        self.mru[set_idx] = vi as u8;
        Lookup {
            hit: false,
            writeback,
            evicted,
        }
    }

    /// Whether the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let line = line_of(addr);
        self.base(self.set_index(line)).is_some_and(|base| {
            self.ways[base..base + self.config.ways]
                .iter()
                .any(|way| way.line == line)
        })
    }

    /// Removes the line containing `addr`, returning whether it was present
    /// and dirty (i.e. whether an invalidation writeback is required).
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let line = line_of(addr);
        let base = self.base(self.set_index(line))?;
        let way = self.ways[base..base + self.config.ways]
            .iter_mut()
            .find(|way| way.line == line)?;
        let dirty = way.dirty;
        *way = Way::default();
        Some(dirty)
    }

    /// Drops every line (e.g. between experiment repetitions); every set
    /// becomes untouched again.
    pub fn flush(&mut self) {
        self.slot.fill(0);
        self.ways.clear();
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of sets materialised since construction or the last flush.
    pub fn touched_sets(&self) -> usize {
        self.ways.len() / self.config.ways
    }

    /// Number of currently-valid lines (scans only the materialised sets).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.line != Way::INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
        })
        .unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheConfig::kib(32, 8).validate().is_ok());
        assert!(CacheConfig {
            size_bytes: 0,
            ways: 8
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 512,
            ways: 0
        }
        .validate()
        .is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig {
            size_bytes: 3 * 2 * 64,
            ways: 2
        }
        .validate()
        .is_err());
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1038, false).hit, "same 64B line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (4 sets => stride 4*64=256).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        let r = c.access(d, false); // must evict b
        assert_eq!(r.evicted, Some(b));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x0, true);
        c.access(0x100, false);
        let r = c.access(0x200, false); // evicts dirty 0x0
        assert_eq!(r.writeback, Some(0x0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert_eq!(r.evicted, Some(0x0));
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.access(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        c.access(0x80, false);
        assert_eq!(c.invalidate(0x80), Some(false));
    }

    #[test]
    fn write_on_hit_marks_dirty() {
        let mut c = small();
        c.access(0x40, false);
        c.access(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0x0, true);
        c.access(0x40, false);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.touched_sets(), 2);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.touched_sets(), 0, "flush leaves every set untouched");
        assert!(!c.contains(0x0));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 8 lines total
        let lines: Vec<u64> = (0..16u64).map(|i| i * 64).collect();
        for _ in 0..4 {
            for &l in &lines {
                c.access(l, false);
            }
        }
        // A 16-line cyclic sweep over an 8-line LRU cache misses every time.
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn working_set_that_fits_stops_missing() {
        let mut c = small();
        let lines: Vec<u64> = (0..8u64).map(|i| i * 64).collect();
        for _ in 0..4 {
            for &l in &lines {
                c.access(l, false);
            }
        }
        assert_eq!(c.misses(), 8, "only compulsory misses");
        assert_eq!(c.hits(), 24);
    }
}
