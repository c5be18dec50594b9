//! Online bottleneck detection over telemetry snapshots.
//!
//! The post-run analyses ([`crate::bottleneck`], [`crate::lockstats`])
//! consume full record logs; this module applies the same logic to the
//! aggregated [`telemetry::Snapshot`]s the collector serves *mid-run*, so
//! lock-contention and memory-bound regions are flagged as they emerge —
//! CounterPoint-style continuous interrogation, powered by reads cheap
//! enough to leave on.
//!
//! The lock detector leans on the workloads' region-naming convention:
//! a lock class `X` instruments its acquire path as region `X.acq` and its
//! critical section as `X.hold` (e.g. `mysql.table.acq` /
//! `mysql.table.hold`).

use sim_cpu::EventKind;
use sim_os::io::DEVICE_NAMES;
use std::fmt;
use telemetry::{RegionSnapshot, Snapshot};

/// Classifier thresholds.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Regions with fewer drained exits than this are ignored (too little
    /// evidence early in a run).
    pub min_count: u64,
    /// Minimum share of instrumented cycles for a region to be flagged at
    /// all.
    pub hot_share: f64,
    /// A lock class is contended when acquire cycles exceed this fraction
    /// of hold cycles (uncontended futex acquires are a few hundred
    /// cycles; waits run to the quantum).
    pub contention_ratio: f64,
    /// LLC misses per thousand instructions above which a hot region is
    /// memory-bound.
    pub mpki: f64,
    /// Share above which a hot, neither-contended-nor-memory-bound region
    /// is reported as plain compute-bound.
    pub cpu_share: f64,
    /// Fraction of a region's cycles spent blocked on I/O above which the
    /// region is io-bound (the kernel charges waits into the blocked
    /// thread's cycle counter, so io-wait ≤ cycles always holds).
    pub io_share: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_count: 8,
            hot_share: 0.10,
            contention_ratio: 0.5,
            mpki: 5.0,
            cpu_share: 0.25,
            io_share: 0.4,
        }
    }
}

/// What a finding accuses a region of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Acquire cycles rival hold cycles: threads fight for the lock.
    LockContention,
    /// High LLC MPKI: the region waits on memory, not compute.
    MemoryBound,
    /// Most of the region's cycles are blocking-I/O waits.
    IoBound,
    /// Hot but neither of the above: plain compute.
    CpuBound,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::LockContention => "lock-contention",
            FindingKind::MemoryBound => "memory-bound",
            FindingKind::IoBound => "io-bound",
            FindingKind::CpuBound => "cpu-bound",
        })
    }
}

/// One classified bottleneck.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Classification.
    pub kind: FindingKind,
    /// The accused region — the lock class (name minus `.acq`/`.hold`)
    /// for contention findings, the region name otherwise.
    pub region: String,
    /// Share of instrumented cycles attributed to the region (acquire +
    /// hold for lock classes).
    pub share: f64,
    /// Human-readable evidence.
    pub detail: String,
}

/// Classifies a snapshot. `events` is the session's counter set (the
/// index of [`EventKind::Cycles`] is required; `Instructions` and
/// [`EventKind::LlcMisses`] enable the memory-bound detector).
pub fn classify(snap: &Snapshot, events: &[EventKind], cfg: &DetectorConfig) -> Vec<Finding> {
    let Some(cyc) = events.iter().position(|e| *e == EventKind::Cycles) else {
        return Vec::new();
    };
    let instr = events.iter().position(|e| *e == EventKind::Instructions);
    let llc = events.iter().position(|e| *e == EventKind::LlcMisses);
    let total = snap.total_event(cyc);
    if total == 0 {
        return Vec::new();
    }

    // A region's share of instrumented cycles: the same f64 that
    // `BottleneckReport::from_totals` computes (region names are unique
    // within a session, so there is no ranking to consult).
    let share_of = |r: &RegionSnapshot| r.event_sum(cyc) as f64 / total as f64;

    let mut findings = Vec::new();
    let mut claimed: Vec<&str> = Vec::new();

    // Lock contention: pair `X.acq` with `X.hold`.
    for acq in &snap.regions {
        let Some(class) = acq.name.strip_suffix(".acq") else {
            continue;
        };
        if acq.count < cfg.min_count {
            continue;
        }
        let acq_cycles = acq.event_sum(cyc);
        let hold = snap
            .regions
            .iter()
            .find(|h| h.name.strip_suffix(".hold") == Some(class));
        let (hold_cycles, hold_count) = hold.map_or((0, 0), |h| (h.event_sum(cyc), h.count));
        let share = (acq_cycles + hold_cycles) as f64 / total as f64;
        if share < cfg.hot_share {
            continue;
        }
        if acq_cycles as f64 >= cfg.contention_ratio * hold_cycles.max(1) as f64 {
            findings.push(Finding {
                kind: FindingKind::LockContention,
                region: class.to_string(),
                share,
                detail: format!(
                    "acquire {} cycles over {} acquires vs hold {} cycles over {} sections",
                    acq_cycles, acq.count, hold_cycles, hold_count
                ),
            });
            claimed.push(&acq.name);
            claimed.extend(hold.map(|h| h.name.as_str()));
        }
    }

    // I/O-bound: the region's cycles are dominated by blocking-I/O waits
    // (the kernel charges waits into the blocked thread's cycle counter, so
    // the wait share of a region's cycles is directly comparable). Claimed
    // before the memory/cpu pass — a region waiting on fsync would
    // otherwise read as hot compute.
    for r in &snap.regions {
        if r.count < cfg.min_count || claimed.contains(&r.name.as_str()) {
            continue;
        }
        let share = share_of(r);
        if share < cfg.hot_share {
            continue;
        }
        let cycles = r.event_sum(cyc);
        let wait = r.io_wait_sum();
        if cycles == 0 || (wait as f64) < cfg.io_share * cycles as f64 {
            continue;
        }
        let slow = r.io_slow_calls();
        if slow == 0 {
            continue;
        }
        let top =
            r.io.iter()
                .max_by_key(|s| (s.wait_sum(), std::cmp::Reverse(s.device)))
                .expect("wait > 0 implies a device entry");
        findings.push(Finding {
            kind: FindingKind::IoBound,
            region: r.name.clone(),
            share,
            detail: format!(
                "{:.0}% of region cycles blocked on {} ({} calls, {} slow)",
                wait as f64 * 100.0 / cycles as f64,
                DEVICE_NAMES.get(top.device).copied().unwrap_or("?"),
                r.io_calls(),
                slow
            ),
        });
        claimed.push(&r.name);
    }

    // Memory-bound / compute-bound on the remaining regions.
    for r in &snap.regions {
        if r.count < cfg.min_count || claimed.contains(&r.name.as_str()) {
            continue;
        }
        let share = share_of(r);
        if share < cfg.hot_share {
            continue;
        }
        let mpki = match (instr, llc) {
            (Some(ii), Some(li)) => {
                let instrs = r.event_sum(ii);
                if instrs == 0 {
                    0.0
                } else {
                    r.event_sum(li) as f64 * 1000.0 / instrs as f64
                }
            }
            _ => 0.0,
        };
        if mpki >= cfg.mpki {
            findings.push(Finding {
                kind: FindingKind::MemoryBound,
                region: r.name.clone(),
                share,
                detail: format!("{mpki:.1} LLC MPKI over {} exits", r.count),
            });
        } else if share >= cfg.cpu_share {
            findings.push(Finding {
                kind: FindingKind::CpuBound,
                region: r.name.clone(),
                share,
                detail: format!(
                    "{:.1}% of instrumented cycles, {mpki:.1} MPKI",
                    share * 100.0
                ),
            });
        }
    }

    findings.sort_by(|a, b| b.share.total_cmp(&a.share));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Histogram;
    use telemetry::{RegionSnapshot, Snapshot};

    fn region(name: &str, count: u64, per_exit: &[u64; 3]) -> RegionSnapshot {
        let events = per_exit
            .iter()
            .map(|&v| {
                let mut h = Histogram::new();
                h.record_n(v, count);
                h
            })
            .collect();
        RegionSnapshot {
            id: 0,
            name: name.to_string(),
            count,
            events,
            io: Vec::new(),
        }
    }

    fn with_io(mut r: RegionSnapshot, device: usize, waits: &[u64]) -> RegionSnapshot {
        let mut hist = Histogram::new();
        let mut slow_calls = 0;
        for &w in waits {
            hist.record(w);
            if w > sim_os::io::SLOW_IO_CYCLES {
                slow_calls += 1;
            }
        }
        r.io.push(telemetry::IoStat {
            device,
            hist,
            slow_calls,
        });
        r.io.sort_by_key(|s| s.device);
        r
    }

    fn snap(regions: Vec<RegionSnapshot>) -> Snapshot {
        Snapshot {
            seq: 1,
            cycle: 1_000_000,
            appended: 100,
            drained: 100,
            dropped: 0,
            overwritten: 0,
            regions,
        }
    }

    const EVENTS: [EventKind; 3] = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::LlcMisses,
    ];

    #[test]
    fn contended_lock_is_flagged_with_its_class_name() {
        // Acquire cycles dwarf hold cycles: classic contention.
        let s = snap(vec![
            region("db.lock.acq", 50, &[20_000, 50, 0]),
            region("db.lock.hold", 50, &[1_000, 400, 0]),
        ]);
        let f = classify(&s, &EVENTS, &DetectorConfig::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::LockContention);
        assert_eq!(f[0].region, "db.lock");
        assert!(f[0].share > 0.9);
    }

    #[test]
    fn uncontended_lock_is_not_flagged() {
        // Acquire is a tiny fraction of hold: healthy lock. The hold
        // region itself is hot compute instead.
        let s = snap(vec![
            region("db.lock.acq", 50, &[100, 20, 0]),
            region("db.lock.hold", 50, &[20_000, 15_000, 1]),
        ]);
        let f = classify(&s, &EVENTS, &DetectorConfig::default());
        assert!(f.iter().all(|x| x.kind != FindingKind::LockContention));
        assert!(f.iter().any(|x| x.kind == FindingKind::CpuBound));
    }

    #[test]
    fn high_mpki_region_is_memory_bound() {
        let s = snap(vec![
            region("scan", 100, &[10_000, 1_000, 50]), // 50 MPKI
            region("tiny", 100, &[10, 10, 0]),
        ]);
        let f = classify(&s, &EVENTS, &DetectorConfig::default());
        assert_eq!(f[0].kind, FindingKind::MemoryBound);
        assert_eq!(f[0].region, "scan");
    }

    #[test]
    fn sparse_or_cold_regions_stay_silent() {
        let s = snap(vec![
            region("rare.acq", 2, &[50_000, 10, 0]), // below min_count
            region("cold", 100, &[1, 1, 0]),         // below hot_share
        ]);
        assert!(classify(&s, &EVENTS, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn wait_dominated_region_is_io_bound_and_names_the_device() {
        // Commit cycles are almost entirely fsync waits (the kernel charges
        // waits into the cycle counter, so per-exit cycles include them).
        let commit = with_io(
            region("store.commit", 16, &[4_000_000, 2_000, 0]),
            2,
            &[3_500_000; 16],
        );
        let s = snap(vec![commit, region("store.append", 16, &[5_000, 4_000, 0])]);
        let f = classify(&s, &EVENTS, &DetectorConfig::default());
        assert_eq!(f[0].kind, FindingKind::IoBound);
        assert_eq!(f[0].region, "store.commit");
        assert!(f[0].detail.contains("fsync"), "{}", f[0].detail);
        assert!(f[0].detail.contains("16 slow"), "{}", f[0].detail);
        // Claimed: the waits must not double-report as compute.
        assert!(f
            .iter()
            .all(|x| x.kind != FindingKind::CpuBound || x.region != "store.commit"));
    }

    #[test]
    fn fast_io_region_is_not_io_bound() {
        // Plenty of I/O calls but none slow and waits are a small share of
        // the region's cycles: the detector stays quiet about I/O.
        let parse = with_io(
            region("proxy.parse", 50, &[20_000, 15_000, 0]),
            1,
            &[100; 50],
        );
        let s = snap(vec![parse]);
        let f = classify(&s, &EVENTS, &DetectorConfig::default());
        assert!(f.iter().all(|x| x.kind != FindingKind::IoBound), "{f:?}");
        assert!(f.iter().any(|x| x.kind == FindingKind::CpuBound));
    }

    #[test]
    fn no_cycle_counter_no_findings() {
        let s = snap(vec![region("x", 100, &[10_000, 10, 0])]);
        assert!(classify(&s, &[EventKind::Instructions], &DetectorConfig::default()).is_empty());
    }
}
