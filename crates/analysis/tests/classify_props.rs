//! Property test: `online::classify` reads each region's cycle share
//! straight from its row; the reference below is the ranking-based body it
//! replaced (shares looked up by name in a `BottleneckReport`). On
//! snapshots whose region names are unique — every session's are, see
//! `workloads::registry`'s `every_session_names_its_regions_uniquely` —
//! the two must agree finding for finding, down to the f64 bits.

use analysis::online::{classify, DetectorConfig, Finding, FindingKind};
use analysis::BottleneckReport;
use proptest::collection::vec;
use proptest::prelude::*;
use sim_core::Histogram;
use sim_cpu::EventKind;
use sim_os::io::{DEVICE_NAMES, SLOW_IO_CYCLES};
use telemetry::{IoStat, RegionSnapshot, Snapshot};

/// The pre-rewrite classifier, kept verbatim apart from its name.
fn reference(snap: &Snapshot, events: &[EventKind], cfg: &DetectorConfig) -> Vec<Finding> {
    let Some(cyc) = events.iter().position(|e| *e == EventKind::Cycles) else {
        return Vec::new();
    };
    let instr = events.iter().position(|e| *e == EventKind::Instructions);
    let llc = events.iter().position(|e| *e == EventKind::LlcMisses);
    let total = snap.total_event(cyc);
    if total == 0 {
        return Vec::new();
    }

    let ranking = BottleneckReport::from_totals(
        snap.regions
            .iter()
            .map(|r| (r.name.clone(), r.event_sum(cyc), r.count)),
        total,
    );
    let share_of = |name: &str| {
        ranking
            .items
            .iter()
            .find(|b| b.name == name)
            .map_or(0.0, |b| b.share)
    };

    let mut findings = Vec::new();
    let mut claimed: Vec<String> = Vec::new();

    for acq in &snap.regions {
        let Some(class) = acq.name.strip_suffix(".acq") else {
            continue;
        };
        if acq.count < cfg.min_count {
            continue;
        }
        let acq_cycles = acq.event_sum(cyc);
        let hold_name = format!("{class}.hold");
        let (hold_cycles, hold_count) = snap
            .region(&hold_name)
            .map_or((0, 0), |h| (h.event_sum(cyc), h.count));
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
            claimed.push(acq.name.clone());
            claimed.push(hold_name);
        }
    }

    for r in &snap.regions {
        if r.count < cfg.min_count || claimed.contains(&r.name) {
            continue;
        }
        let share = share_of(&r.name);
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
        claimed.push(r.name.clone());
    }

    for r in &snap.regions {
        if r.count < cfg.min_count || claimed.contains(&r.name) {
            continue;
        }
        let share = share_of(&r.name);
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

/// Region names to draw from: lock pairs, an acquire without its hold, a
/// hold without its acquire, and plain regions.
const NAMES: [&str; 9] = [
    "db.acq",
    "db.hold",
    "pool.acq",
    "pool.hold",
    "log.acq",
    "idx.hold",
    "scan",
    "commit",
    "parse",
];

/// One drawn region: present?, exit count, per-exit cycles / instructions
/// / LLC misses, and I/O waits on one device.
type Draw = (bool, u64, (u64, u64, u64), (usize, Vec<u64>));

fn histogram(value: u64, n: u64) -> Histogram {
    let mut h = Histogram::new();
    h.record_n(value, n);
    h
}

fn snapshot(draws: &[Draw]) -> Snapshot {
    let regions = NAMES
        .iter()
        .zip(draws)
        .enumerate()
        .filter(|(_, (_, d))| d.0)
        .map(
            |(id, (name, (_, count, (cy, ins, llc), (device, waits))))| {
                let mut io = Vec::new();
                if !waits.is_empty() {
                    let mut hist = Histogram::new();
                    for &w in waits {
                        hist.record(w);
                    }
                    io.push(IoStat {
                        device: *device,
                        hist,
                        slow_calls: waits.iter().filter(|&&w| w > SLOW_IO_CYCLES).count() as u64,
                    });
                }
                RegionSnapshot {
                    id: id as u64,
                    name: name.to_string(),
                    count: *count,
                    events: vec![
                        histogram(*cy, *count),
                        histogram(*ins, *count),
                        histogram(*llc, *count),
                    ],
                    io,
                }
            },
        )
        .collect();
    Snapshot {
        regions,
        ..Snapshot::empty()
    }
}

fn key(f: &[Finding]) -> Vec<(FindingKind, String, u64, String)> {
    f.iter()
        .map(|f| {
            (
                f.kind,
                f.region.clone(),
                f.share.to_bits(),
                f.detail.clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn direct_shares_match_the_ranking(
        draws in vec(
            (
                any::<bool>(),
                0u64..24,
                (0u64..40_000, 1u64..20_000, 0u64..400),
                (0usize..3, vec(0u64..2 * SLOW_IO_CYCLES, 0..4)),
            ),
            NAMES.len(),
        ),
        hot_share in 0.0f64..0.4,
        with_mem in any::<bool>(),
    ) {
        let snap = snapshot(&draws);
        let events: &[EventKind] = if with_mem {
            &[EventKind::Cycles, EventKind::Instructions, EventKind::LlcMisses]
        } else {
            &[EventKind::Cycles]
        };
        let cfg = DetectorConfig {
            hot_share,
            ..DetectorConfig::default()
        };
        prop_assert_eq!(key(&classify(&snap, events, &cfg)), key(&reference(&snap, events, &cfg)));
    }
}
