//! Per-core execution state: registers, clock, PMU, branch predictor.
//!
//! The instruction-execution logic itself lives in [`crate::machine`],
//! because one step touches the core, shared guest memory, and the shared
//! memory hierarchy at once.

use crate::events::EventKind;
use crate::pmu::{Pmu, PmuConfig};
use crate::regs::Context;
use serde::{Deserialize, Serialize};
use sim_core::{CoreId, SimResult, ThreadId};

/// Privilege mode the core is executing in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Unprivileged guest code.
    User,
    /// Kernel code (simulated as host logic that charges guest cycles).
    Kernel,
}

/// A trap raised by instruction execution, handed to the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// The thread executed `Syscall(nr)`.
    Syscall(u64),
    /// The thread executed `Halt`.
    Halt,
    /// An illegal operation: the message describes it.
    Fault(String),
}

/// The outcome of executing one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Cycles consumed (including memory stalls and mispredict penalties).
    pub cycles: u64,
    /// Instructions retired (bursts retire several at once).
    pub instrs: u64,
    /// Trap raised, if any. The PC has already advanced past the trapping
    /// instruction for `Syscall`/`Halt`; for `Fault` it points at the
    /// faulting instruction.
    pub trap: Option<Trap>,
}

/// A 2-bit-counter branch predictor (one table per core).
///
/// Loop branches saturate quickly to strongly-taken, giving the high
/// prediction rates real workloads see; data-dependent branches in the
/// synthetic workloads miss at realistic rates.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<u8>,
}

impl BranchPredictor {
    const SIZE: usize = 4096;

    /// A predictor initialized to weakly-not-taken.
    pub fn new() -> Self {
        BranchPredictor {
            table: vec![1; Self::SIZE],
        }
    }

    fn slot(&mut self, pc: u32) -> &mut u8 {
        &mut self.table[pc as usize % Self::SIZE]
    }

    /// Predicts, updates, and reports whether the prediction was wrong.
    pub fn observe(&mut self, pc: u32, taken: bool) -> bool {
        let s = self.slot(pc);
        let predicted_taken = *s >= 2;
        if taken {
            *s = (*s + 1).min(3);
        } else {
            *s = s.saturating_sub(1);
        }
        predicted_taken != taken
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new()
    }
}

/// Batched PMU accrual for the block-stepped fast path (see
/// [`crate::machine::Machine::run_until`]).
///
/// While `active`, [`crate::machine::Machine`] diverts event deliveries
/// into `counts` instead of the PMU and flushes them in batch — at counter
/// reads, tag changes, and every fast-path exit — so the PMU observes the
/// same totals as per-instruction delivery. The executor's headroom guard
/// guarantees no *armed* counter (PMI or spill on overflow) can wrap while
/// counts sit in the batch, which is what makes deferred delivery exact.
#[derive(Debug, Clone)]
pub struct BatchAccrual {
    /// Whether event deliveries are currently diverted into the batch.
    pub active: bool,
    /// Pending per-event counts awaiting delivery to the PMU.
    pub counts: [u64; EventKind::COUNT],
    /// Sum of all pending counts (cheap guard arithmetic).
    pub total: u64,
    /// Cached [`crate::pmu::Pmu::armed_headroom`] as of the last flush.
    pub headroom: u64,
}

impl Default for BatchAccrual {
    fn default() -> Self {
        BatchAccrual {
            active: false,
            counts: [0; EventKind::COUNT],
            total: 0,
            headroom: u64::MAX,
        }
    }
}

/// One simulated core.
#[derive(Debug, Clone)]
pub struct Core {
    /// This core's id.
    pub id: CoreId,
    /// Local cycle clock (also the `rdtsc` value).
    pub clock: u64,
    /// The performance-monitoring unit.
    pub pmu: Pmu,
    /// Current privilege mode.
    pub mode: Mode,
    /// Register state of the thread currently installed on the core.
    pub ctx: Context,
    /// The installed thread, or `None` when idle.
    pub running: Option<ThreadId>,
    /// Branch predictor state (not virtualized across threads — matching
    /// real hardware, where predictor state leaks across context switches).
    pub predictor: BranchPredictor,
    /// Per-step user-mode event scratch for the differential oracle
    /// ([`crate::oracle`]); `None` unless the machine's oracle is enabled.
    /// Flushed into the per-thread ledger after every step.
    pub oracle_scratch: Option<Box<[u64; EventKind::COUNT]>>,
    /// Batched PMU accrual state for the block-stepped fast path. Inactive
    /// (and empty) whenever control is outside `Machine::run_until`.
    pub batch: BatchAccrual,
    /// Lifetime guest instructions retired by this core (the numerator of
    /// the interpreter-throughput benchmark; kernel `charge` bookkeeping
    /// is excluded — only decoded-and-executed instructions count).
    pub retired: u64,
}

impl Core {
    /// Builds an idle core.
    pub fn new(id: CoreId, pmu_config: PmuConfig) -> SimResult<Self> {
        Ok(Core {
            id,
            clock: 0,
            pmu: Pmu::new(pmu_config)?,
            mode: Mode::Kernel,
            ctx: Context::default(),
            running: None,
            predictor: BranchPredictor::new(),
            oracle_scratch: None,
            batch: BatchAccrual::default(),
            retired: 0,
        })
    }

    /// Delivers all batched event counts to the PMU at the core's current
    /// mode and tag. Contents move; `active` and `headroom` are untouched.
    fn deliver_batch(&mut self) {
        if self.batch.total > 0 {
            let tag = self.ctx.tag;
            for (i, v) in self.batch.counts.iter_mut().enumerate() {
                if *v > 0 {
                    self.pmu.count(EventKind::ALL[i], *v, self.mode, tag);
                    *v = 0;
                }
            }
            self.batch.total = 0;
        }
    }

    /// Delivers all batched event counts and refreshes the cached armed
    /// headroom (for flushes after which batching continues). The batch
    /// stays in whatever `active` state it was in; only its contents move.
    pub fn flush_batch(&mut self) {
        self.deliver_batch();
        self.batch.headroom = self.pmu.armed_headroom();
    }

    /// Delivers all batched event counts and deactivates batching, without
    /// the headroom recompute (no batching follows until reactivation,
    /// which refreshes it).
    pub fn settle_batch(&mut self) {
        self.deliver_batch();
        self.batch.active = false;
    }

    /// Whether the core has a thread installed.
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_a_loop() {
        let mut p = BranchPredictor::new();
        let mut misses = 0;
        for _ in 0..100 {
            if p.observe(10, true) {
                misses += 1;
            }
        }
        // Warms up within a couple of iterations, then predicts perfectly.
        assert!(misses <= 2, "misses = {misses}");
    }

    #[test]
    fn predictor_misses_on_alternating_pattern() {
        let mut p = BranchPredictor::new();
        let mut misses = 0;
        for i in 0..100 {
            if p.observe(20, i % 2 == 0) {
                misses += 1;
            }
        }
        assert!(misses >= 40, "alternating defeats a 2-bit counter");
    }

    #[test]
    fn fresh_core_is_idle_in_kernel_mode() {
        let c = Core::new(CoreId::new(0), PmuConfig::default()).unwrap();
        assert!(!c.is_busy());
        assert_eq!(c.mode, Mode::Kernel);
        assert_eq!(c.clock, 0);
    }
}
