//! Property-based tests for the cache model: the set-associative LRU array
//! must agree with a brute-force reference model on arbitrary access
//! traces, and hierarchy invariants must hold under random workloads.

use proptest::prelude::*;
use sim_core::{CoreId, DetRng};
use sim_mem::{Cache, CacheConfig, HierarchyConfig, MemorySystem};
use std::collections::HashMap;

/// A brute-force reference cache: per-set vectors of `(line, dirty)`
/// ordered by recency, plus which sets an access touched since the last
/// flush (the production cache materialises exactly those).
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>, // most-recent first
    touched: Vec<bool>,
    ways: usize,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); sets],
            touched: vec![false; sets],
            ways,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        ((line / 64) % self.sets.len() as u64) as usize
    }

    /// Returns the `Lookup` fields: `(hit, writeback, evicted)`.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>, Option<u64>) {
        let line = addr & !63;
        let set = self.set_of(line);
        self.touched[set] = true;
        let v = &mut self.sets[set];
        if let Some(pos) = v.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = v.remove(pos);
            v.insert(0, (line, dirty || write));
            return (true, None, None);
        }
        v.insert(0, (line, write));
        let victim = (v.len() > self.ways).then(|| v.pop().expect("over-full set"));
        (
            false,
            victim.and_then(|(l, dirty)| dirty.then_some(l)),
            victim.map(|(l, _)| l),
        )
    }

    fn contains(&self, addr: u64) -> bool {
        let line = addr & !63;
        self.sets[self.set_of(line)].iter().any(|&(l, _)| l == line)
    }

    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let line = addr & !63;
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|&(l, _)| l == line)?;
        Some(self.sets[set].remove(pos).1)
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.touched.fill(false);
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn touched_sets(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }
}

proptest! {
    /// The production cache and the reference model agree on every
    /// `Lookup` field (hit, writeback, evicted) of reads and writes, on
    /// `contains` and `invalidate` over touched and untouched sets, across
    /// mid-trace flushes, and on occupancy and the set of materialised
    /// sets after every operation.
    #[test]
    fn cache_matches_reference_model(
        trace in prop::collection::vec((0u8..64, 0u64..(1 << 14)), 1..400),
        ways in 1usize..5,
        sets_log in 1u32..8,
    ) {
        let sets = 1usize << sets_log;
        let config = CacheConfig {
            size_bytes: (sets * ways * 64) as u64,
            ways,
        };
        let mut cache = Cache::new(config).unwrap();
        let mut reference = RefCache::new(sets, ways);
        let mut accesses = 0u64;
        prop_assert_eq!(cache.touched_sets(), 0);
        for &(op, a) in &trace {
            let addr = a * 8; // 8-byte-aligned addresses
            match op {
                0..=43 => {
                    let write = op >= 24;
                    accesses += 1;
                    let got = cache.access(addr, write);
                    let got = (got.hit, got.writeback, got.evicted);
                    let want = reference.access(addr, write);
                    prop_assert_eq!(got, want, "access({:#x}, {})", addr, write);
                }
                44..=52 => prop_assert_eq!(
                    cache.invalidate(addr),
                    reference.invalidate(addr),
                    "invalidate({:#x})",
                    addr
                ),
                53..=61 => prop_assert_eq!(
                    cache.contains(addr),
                    reference.contains(addr),
                    "contains({:#x})",
                    addr
                ),
                _ => {
                    cache.flush();
                    reference.flush();
                }
            }
            prop_assert_eq!(cache.occupancy(), reference.occupancy(), "occupancy");
            prop_assert_eq!(
                cache.touched_sets(),
                reference.touched_sets(),
                "materialised sets after op {} at {:#x}",
                op,
                addr
            );
        }
        prop_assert_eq!(cache.hits() + cache.misses(), accesses);
    }

    /// Hierarchy sanity under random multicore traffic: event flags are
    /// consistent (an L2 miss implies an L1 miss; an LLC miss implies
    /// both) and latency is bounded below by the L1 latency.
    #[test]
    fn hierarchy_event_flags_are_consistent(
        seed in any::<u64>(),
        accesses in 50usize..400,
        cores in 1usize..4,
    ) {
        let cfg = HierarchyConfig::tiny();
        let mut m = MemorySystem::new(cores, cfg).unwrap();
        let mut rng = DetRng::new(seed);
        for i in 0..accesses {
            let core = CoreId::new(rng.below(cores as u64) as u32);
            let addr = rng.below(1 << 14) * 8;
            let write = rng.chance(0.3);
            let a = m.access(core, addr, write, i as u64 * 10);
            if a.events.l2_miss {
                prop_assert!(a.events.l1_miss, "L2 miss without L1 miss");
            }
            if a.events.llc_miss {
                prop_assert!(a.events.l1_miss && a.events.l2_miss);
            }
            prop_assert!(a.latency >= cfg.l1_latency);
            if !write {
                prop_assert_eq!(a.events.invalidations, 0, "reads never invalidate");
            }
        }
    }

    /// Coherence: after a write by one core, every other former sharer
    /// misses privately on its next access — no stale private hits.
    #[test]
    fn writes_invalidate_all_sharers(
        seed in any::<u64>(),
        rounds in 5usize..40,
    ) {
        let cores = 4;
        let mut m = MemorySystem::new(cores, HierarchyConfig::tiny()).unwrap();
        let mut rng = DetRng::new(seed);
        let line = 0x9000u64;
        let mut now = 0u64;
        // Track which cores hold the line privately (model).
        let mut holders: HashMap<usize, ()> = HashMap::new();
        for _ in 0..rounds {
            let c = rng.below(cores as u64) as usize;
            let write = rng.chance(0.5);
            now += 100;
            let a = m.access(CoreId::new(c as u32), line, write, now);
            if write {
                let expected_inv = holders.keys().filter(|&&h| h != c).count() as u32;
                prop_assert_eq!(a.events.invalidations, expected_inv);
                holders.clear();
            }
            holders.insert(c, ());
        }
    }
}
