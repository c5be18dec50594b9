//! Deterministic disturbance injection for the torture harness.
//!
//! An [`Injector`] carries a *schedule*: a list of [`Injection`] trigger
//! points, each saying "the `hit`-th time thread `tid` is about to execute
//! the instruction at `pc`, force `action`". The kernel polls the injector
//! at the top of its run loop, immediately before stepping a core — the
//! same instruction boundary where organic preemptions and PMIs land — so
//! an injected disturbance is indistinguishable from a real one to the
//! guest and to the virtualization layer under test.
//!
//! Schedules are plain data derived from a seed, which makes every run
//! (and every divergence the oracle catches) replayable and shrinkable:
//! re-running with a subset of the injection list is how delta debugging
//! minimizes a failing schedule.

use sim_core::{FxHashMap, ThreadId};
use std::fmt;

/// A disturbance the kernel can force at an instruction boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectAction {
    /// Involuntary preemption: switch out, requeue, reschedule.
    Preempt,
    /// Spurious early-overflow PMI: the kernel folds each live LiMiT
    /// counter into its accumulator through the normal PMI path (fix-up
    /// and seqlock bump included). Count-preserving: it folds the live
    /// raw value, not the wrap modulus.
    Pmi,
    /// Forced migration: switch out and install on the next core
    /// (preempting its occupant), so the thread resumes elsewhere.
    Migrate,
    /// Forced self-virtualizing hardware spill: each live LiMiT counter
    /// value moves to its accumulator with no *synchronous* kernel
    /// involvement. This models the paper's hardware enhancement 2
    /// mid-sequence; the spill is journaled for the kernel, whose consult
    /// at the next instruction boundary applies the restart fix-up.
    /// Torture runs keep it as a separate arm to exercise the journal.
    Spill,
}

impl InjectAction {
    /// The default action set: every disturbance the restart fix-up
    /// protects against ([`InjectAction::Spill`] deliberately excluded).
    pub const FIXABLE: [InjectAction; 3] = [
        InjectAction::Preempt,
        InjectAction::Pmi,
        InjectAction::Migrate,
    ];
}

impl InjectAction {
    /// The action's stable lowercase name (trace output and rendering).
    pub fn name(self) -> &'static str {
        match self {
            InjectAction::Preempt => "preempt",
            InjectAction::Pmi => "pmi",
            InjectAction::Migrate => "migrate",
            InjectAction::Spill => "spill",
        }
    }
}

impl fmt::Display for InjectAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One trigger point in an injection schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The thread to disturb.
    pub tid: ThreadId,
    /// The instruction address to disturb at.
    pub pc: u32,
    /// Fire on the `hit`-th occasion (1-based) that `tid` is about to
    /// execute `pc`. Occurrences are counted only at (tid, pc) pairs that
    /// appear in the schedule, so counting cost is bounded by the schedule.
    pub hit: u32,
    /// What to do.
    pub action: InjectAction,
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ pc {:>5}  hit {:>3}  {}",
            self.tid, self.pc, self.hit, self.action
        )
    }
}

/// Occurrence-counting trigger table compiled from a schedule.
#[derive(Debug, Default)]
pub struct Injector {
    triggers: FxHashMap<(ThreadId, u32), Vec<(u32, InjectAction)>>,
    seen: FxHashMap<(ThreadId, u32), u32>,
    /// Injections actually fired.
    pub fired: u64,
}

impl Injector {
    /// Compiles a schedule into a trigger table.
    pub fn new(schedule: &[Injection]) -> Self {
        let mut triggers: FxHashMap<_, Vec<_>> = FxHashMap::default();
        for inj in schedule {
            triggers
                .entry((inj.tid, inj.pc))
                .or_default()
                .push((inj.hit.max(1), inj.action));
        }
        Injector {
            triggers,
            seen: FxHashMap::default(),
            fired: 0,
        }
    }

    /// Reports that `tid` is about to execute `pc`; returns the action to
    /// force, if this occurrence matches a trigger. At most one action
    /// fires per occurrence (the first matching schedule entry).
    pub fn poll(&mut self, tid: ThreadId, pc: u32) -> Option<InjectAction> {
        let key = (tid, pc);
        if !self.triggers.contains_key(&key) {
            return None;
        }
        let n = self.seen.entry(key).or_insert(0);
        *n += 1;
        let hit = *n;
        let action = self.triggers[&key]
            .iter()
            .find(|&&(h, _)| h == hit)
            .map(|&(_, a)| a);
        if action.is_some() {
            self.fired += 1;
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn fires_on_the_requested_occurrence_only() {
        let mut inj = Injector::new(&[Injection {
            tid: T0,
            pc: 42,
            hit: 3,
            action: InjectAction::Preempt,
        }]);
        assert_eq!(inj.poll(T0, 42), None);
        assert_eq!(inj.poll(T0, 42), None);
        assert_eq!(inj.poll(T0, 42), Some(InjectAction::Preempt));
        assert_eq!(inj.poll(T0, 42), None, "one-shot");
        assert_eq!(inj.fired, 1);
    }

    #[test]
    fn triggers_are_per_thread_and_per_pc() {
        let mut inj = Injector::new(&[Injection {
            tid: T0,
            pc: 10,
            hit: 1,
            action: InjectAction::Pmi,
        }]);
        assert_eq!(inj.poll(T1, 10), None, "other thread");
        assert_eq!(inj.poll(T0, 11), None, "other pc");
        assert_eq!(inj.poll(T0, 10), Some(InjectAction::Pmi));
    }

    #[test]
    fn multiple_triggers_at_one_site() {
        let mk = |hit, action| Injection {
            tid: T0,
            pc: 5,
            hit,
            action,
        };
        let mut inj = Injector::new(&[mk(1, InjectAction::Preempt), mk(2, InjectAction::Migrate)]);
        assert_eq!(inj.poll(T0, 5), Some(InjectAction::Preempt));
        assert_eq!(inj.poll(T0, 5), Some(InjectAction::Migrate));
        assert_eq!(inj.poll(T0, 5), None);
        assert_eq!(inj.fired, 2);
    }

    #[test]
    fn zero_hit_is_clamped_to_first_occurrence() {
        let mut inj = Injector::new(&[Injection {
            tid: T0,
            pc: 1,
            hit: 0,
            action: InjectAction::Spill,
        }]);
        assert_eq!(inj.poll(T0, 1), Some(InjectAction::Spill));
    }
}
