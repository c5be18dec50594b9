//! Differential oracle for counter virtualization (the torture harness).
//!
//! The oracle maintains a **shadow per-thread event ledger** entirely
//! outside the PMU path: every user-mode event a core delivers is also
//! added to a plain 64-bit tally keyed by the thread installed on the core.
//! Nothing in the ledger is folded, rewound, spilled, or width-limited, so
//! it is immune by construction to every virtualization mechanism under
//! test.
//!
//! Checking works at the two ends of the LiMiT read sequence
//! (`load accum; rdpmc; add`):
//!
//! 1. When a thread executes `rdpmc` *inside a registered restart range*,
//!    the oracle arms a pending check with the **expected** virtualized
//!    value: `ledger[thread][event] - baseline`, where `baseline` was
//!    snapshotted when the counter was attached (`LIMIT_OPEN`).
//! 2. When the final instruction of that range (the `add`) retires, the
//!    architected result — accumulator + live counter as the guest computed
//!    it — is compared against the expectation. A mismatch is a
//!    [`Divergence`]: the virtualization layer produced a wrong read.
//!
//! An undisturbed sequence matches exactly: at the `rdpmc`, the user-memory
//! accumulator holds all folded history and the live counter holds the
//! remainder, both counted since `LIMIT_OPEN` — precisely the ledger delta.
//! A disturbance landing between the `load` and the `add` changes the
//! architected sum unless the kernel's restart fix-up rewinds the sequence,
//! which is exactly the invariant the torture harness exists to test.

use crate::events::EventKind;
use sim_core::{FxHashMap, ThreadId};

/// One wrong virtualized read caught by the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// The thread that performed the read.
    pub tid: ThreadId,
    /// The restart range `[start, end)` containing the read sequence.
    pub range: (u32, u32),
    /// The event being read.
    pub event: EventKind,
    /// What the read should have returned (shadow-ledger delta).
    pub expected: u64,
    /// What the guest actually computed.
    pub actual: u64,
    /// Core-local clock when the sequence's final instruction retired.
    pub clock: u64,
}

/// A check armed by an in-range `rdpmc`, resolved by the range's last
/// instruction.
#[derive(Debug, Clone, Copy)]
struct Pending {
    range: (u32, u32),
    event: EventKind,
    expected: u64,
}

/// The shadow ledger plus check state. Owned by [`crate::Machine`] when
/// enabled; the kernel reports counter attach/detach via
/// [`Oracle::note_open`] / [`Oracle::note_close`].
#[derive(Debug, Default)]
pub struct Oracle {
    /// Registered restart ranges, sorted by start, non-overlapping.
    ranges: Vec<(u32, u32)>,
    /// Per-thread event tallies (user-mode only, never folded or wrapped).
    ledger: FxHashMap<ThreadId, [u64; EventKind::COUNT]>,
    /// Open LiMiT slots: (thread, slot) → (event, ledger baseline at open).
    opens: FxHashMap<(ThreadId, u8), (EventKind, u64)>,
    /// Open perf fds: (thread, fd) → (event, ledger baseline at open).
    /// Entries are *never* removed — fds are allocated monotonically and
    /// land in the kernel's closed-fd graveyard, so post-run host checks
    /// (the sampling arm) can still resolve baselines after thread exit.
    perf_opens: FxHashMap<(ThreadId, u32), (EventKind, u64)>,
    /// At most one in-flight read sequence per thread.
    pending: FxHashMap<ThreadId, Pending>,
    /// Reads checked (armed *and* resolved).
    pub checks: u64,
    divergences: Vec<Divergence>,
    /// Bounded-error checks performed (syscall/sampling access methods,
    /// where scheduling slack makes exactness the wrong contract).
    bounded_checks: u64,
    /// Largest absolute error any bounded check has measured.
    max_abs_error: u64,
}

impl Oracle {
    /// An oracle checking reads inside the given restart ranges.
    pub fn new(ranges: &[(u32, u32)]) -> Self {
        let mut ranges = ranges.to_vec();
        ranges.sort_unstable();
        Oracle {
            ranges,
            ..Oracle::default()
        }
    }

    /// Adds `n` occurrences of `event` to `tid`'s ledger.
    pub fn record(&mut self, tid: ThreadId, event: EventKind, n: u64) {
        self.ledger.entry(tid).or_insert([0; EventKind::COUNT])[event.index()] += n;
    }

    /// Adds one step's events (indexed by [`EventKind::index`]) to `tid`'s
    /// ledger with a single lookup.
    pub fn record_step(&mut self, tid: ThreadId, events: &[u64; EventKind::COUNT]) {
        let row = self.ledger.entry(tid).or_insert([0; EventKind::COUNT]);
        for (total, n) in row.iter_mut().zip(events) {
            *total += n;
        }
    }

    /// The ledger value for `(tid, event)`.
    pub fn ledger(&self, tid: ThreadId, event: EventKind) -> u64 {
        self.ledger.get(&tid).map_or(0, |l| l[event.index()])
    }

    /// The kernel attached `event` to `(tid, slot)`: snapshot the baseline.
    /// Reads report events since the attach, so the expectation must too.
    pub fn note_open(&mut self, tid: ThreadId, slot: u8, event: EventKind) {
        let baseline = self.ledger(tid, event);
        self.opens.insert((tid, slot), (event, baseline));
    }

    /// The kernel detached `(tid, slot)`.
    pub fn note_close(&mut self, tid: ThreadId, slot: u8) {
        self.opens.remove(&(tid, slot));
    }

    /// The kernel opened perf fd `fd` counting `event` for `tid`: snapshot
    /// the ledger baseline, as [`Oracle::note_open`] does for LiMiT slots.
    pub fn note_perf_open(&mut self, tid: ThreadId, fd: u32, event: EventKind) {
        let baseline = self.ledger(tid, event);
        self.perf_opens.insert((tid, fd), (event, baseline));
    }

    /// The event and ledger baseline recorded at `perf_open` for
    /// `(tid, fd)`, if that fd was opened under the oracle. Host-side
    /// checks (the sampling arm) use this to form expectations after the
    /// run, when only the fd graveyard remains.
    pub fn perf_open_info(&self, tid: ThreadId, fd: u32) -> Option<(EventKind, u64)> {
        self.perf_opens.get(&(tid, fd)).copied()
    }

    /// `tid` read perf fd `fd` via the syscall path and got `actual`.
    /// Records a bounded-error check against the ledger delta since open
    /// and returns the absolute error, or `None` if the fd is unknown.
    /// Unlike the rdpmc path this is *not* a pass/fail: the syscall read
    /// has no restart range, so instructions retired between the ledger
    /// snapshot and the kernel's counter fold are honest skew, and the
    /// caller judges the measured error against its documented bound.
    pub fn check_perf_read(&mut self, tid: ThreadId, fd: u32, actual: u64) -> Option<u64> {
        let &(event, baseline) = self.perf_opens.get(&(tid, fd))?;
        let expected = self.ledger(tid, event) - baseline;
        let err = expected.abs_diff(actual);
        self.record_bounded_error(err);
        Some(err)
    }

    /// Folds one externally measured bounded-error sample (e.g. the
    /// host-side sampling check) into the running maximum.
    pub fn record_bounded_error(&mut self, err: u64) {
        self.bounded_checks += 1;
        self.max_abs_error = self.max_abs_error.max(err);
    }

    /// Number of bounded-error checks performed.
    pub fn bounded_checks(&self) -> u64 {
        self.bounded_checks
    }

    /// Largest absolute error measured across all bounded checks.
    pub fn max_abs_error(&self) -> u64 {
        self.max_abs_error
    }

    /// The range containing `pc`, if any (ranges are sorted and disjoint).
    fn containing_range(&self, pc: u32) -> Option<(u32, u32)> {
        let pos = self.ranges.partition_point(|&(s, _)| s <= pc);
        match pos.checked_sub(1).map(|i| self.ranges[i]) {
            Some((s, e)) if pc < e => Some((s, e)),
            _ => None,
        }
    }

    /// `tid` executed `rdpmc slot` at `pc`. If the read sits inside a
    /// registered range and the slot is an open LiMiT counter, arm the
    /// check. A re-execution (restart fix-up rewound the sequence)
    /// overwrites the previous arm — only the sequence that *completes*
    /// produces the architected value. Returns whether a check was armed
    /// (the flight recorder mirrors arms as events).
    pub fn observe_read(&mut self, tid: ThreadId, slot: u8, pc: u32) -> bool {
        let Some(range) = self.containing_range(pc) else {
            return false;
        };
        let Some(&(event, baseline)) = self.opens.get(&(tid, slot)) else {
            return false;
        };
        let expected = self.ledger(tid, event) - baseline;
        self.pending.insert(
            tid,
            Pending {
                range,
                event,
                expected,
            },
        );
        true
    }

    /// `tid` retired the instruction at `pc` leaving `actual` in the
    /// sequence's destination register. Resolves the pending check if `pc`
    /// is the final instruction of the armed range; returns `Some(ok)`
    /// when a check resolved (`false` means a divergence was recorded).
    pub fn complete(&mut self, tid: ThreadId, pc: u32, actual: u64, clock: u64) -> Option<bool> {
        let p = self.pending.get(&tid)?;
        if pc + 1 != p.range.1 {
            return None;
        }
        let p = *p;
        self.pending.remove(&tid);
        self.checks += 1;
        let ok = actual == p.expected;
        if !ok {
            self.divergences.push(Divergence {
                tid,
                range: p.range,
                event: p.event,
                expected: p.expected,
                actual,
                clock,
            });
        }
        Some(ok)
    }

    /// All divergences caught so far, in detection order.
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ThreadId = ThreadId(7);

    #[test]
    fn undisturbed_read_matches() {
        let mut o = Oracle::new(&[(10, 13)]);
        o.record(T, EventKind::Instructions, 5);
        o.note_open(T, 0, EventKind::Instructions);
        o.record(T, EventKind::Instructions, 42);
        o.observe_read(T, 0, 11);
        // The rdpmc's own retirement lands after the read, so it is in the
        // ledger but not in the architected value; the arm-time snapshot
        // already excluded it.
        o.record(T, EventKind::Instructions, 1);
        o.complete(T, 12, 42, 1_000);
        assert_eq!(o.checks, 1);
        assert!(o.divergences().is_empty());
    }

    #[test]
    fn wrong_value_is_a_divergence() {
        let mut o = Oracle::new(&[(10, 13)]);
        o.note_open(T, 0, EventKind::Instructions);
        o.record(T, EventKind::Instructions, 100);
        o.observe_read(T, 0, 11);
        o.complete(T, 12, 60, 500);
        assert_eq!(o.checks, 1);
        let d = o.divergences()[0];
        assert_eq!((d.expected, d.actual), (100, 60));
        assert_eq!(d.range, (10, 13));
    }

    #[test]
    fn baseline_excludes_pre_open_events() {
        let mut o = Oracle::new(&[(10, 13)]);
        o.record(T, EventKind::Instructions, 1_000);
        o.note_open(T, 0, EventKind::Instructions);
        o.record(T, EventKind::Instructions, 3);
        o.observe_read(T, 0, 11);
        o.complete(T, 12, 3, 0);
        assert!(o.divergences().is_empty());
    }

    #[test]
    fn rewound_sequence_overwrites_the_arm() {
        let mut o = Oracle::new(&[(10, 13)]);
        o.note_open(T, 0, EventKind::Instructions);
        o.record(T, EventKind::Instructions, 10);
        o.observe_read(T, 0, 11); // first attempt, expected 10
        o.record(T, EventKind::Instructions, 7); // disturbance + re-run
        o.observe_read(T, 0, 11); // re-armed, expected 17
        o.complete(T, 12, 17, 0);
        assert_eq!(o.checks, 1);
        assert!(o.divergences().is_empty());
    }

    #[test]
    fn reads_outside_ranges_or_unopened_slots_are_ignored() {
        let mut o = Oracle::new(&[(10, 13)]);
        o.note_open(T, 0, EventKind::Instructions);
        o.observe_read(T, 0, 50); // outside any range
        o.complete(T, 12, 999, 0);
        o.observe_read(T, 3, 11); // slot never opened
        o.complete(T, 12, 999, 0);
        assert_eq!(o.checks, 0);
        assert!(o.divergences().is_empty());
    }

    #[test]
    fn close_forgets_the_slot() {
        let mut o = Oracle::new(&[(10, 13)]);
        o.note_open(T, 0, EventKind::Cycles);
        o.note_close(T, 0);
        o.observe_read(T, 0, 11);
        o.complete(T, 12, 0, 0);
        assert_eq!(o.checks, 0);
    }

    #[test]
    fn perf_reads_record_bounded_error_not_divergence() {
        let mut o = Oracle::new(&[]);
        o.record(T, EventKind::Instructions, 50);
        o.note_perf_open(T, 3, EventKind::Instructions);
        o.record(T, EventKind::Instructions, 100);
        assert_eq!(o.check_perf_read(T, 3, 100), Some(0));
        assert_eq!(o.check_perf_read(T, 3, 95), Some(5));
        assert_eq!(o.check_perf_read(T, 9, 0), None, "unknown fd");
        assert_eq!(o.bounded_checks(), 2);
        assert_eq!(o.max_abs_error(), 5);
        assert!(o.divergences().is_empty(), "bounded checks never diverge");
        assert_eq!(o.perf_open_info(T, 3), Some((EventKind::Instructions, 50)));
    }

    #[test]
    fn host_side_bounded_samples_share_the_running_max() {
        let mut o = Oracle::new(&[]);
        o.record_bounded_error(7);
        o.record_bounded_error(2);
        assert_eq!(o.bounded_checks(), 2);
        assert_eq!(o.max_abs_error(), 7);
    }

    #[test]
    fn record_step_matches_per_event_records() {
        let mut step = [0; EventKind::COUNT];
        step[EventKind::Instructions.index()] = 3;
        step[EventKind::Cycles.index()] = 9;
        let mut a = Oracle::new(&[]);
        let mut b = Oracle::new(&[]);
        for _ in 0..2 {
            a.record_step(T, &step);
            for (i, &n) in step.iter().enumerate() {
                b.record(T, EventKind::ALL[i], n);
            }
        }
        for &e in EventKind::ALL.iter() {
            assert_eq!(a.ledger(T, e), b.ledger(T, e), "{e:?}");
        }
        assert_eq!(a.ledger(T, EventKind::Cycles), 18);
    }

    #[test]
    fn containing_range_boundaries() {
        let o = Oracle::new(&[(10, 13), (20, 23)]);
        assert_eq!(o.containing_range(9), None);
        assert_eq!(o.containing_range(10), Some((10, 13)));
        assert_eq!(o.containing_range(12), Some((10, 13)));
        assert_eq!(o.containing_range(13), None);
        assert_eq!(o.containing_range(22), Some((20, 23)));
    }
}
