//! The multicore machine: cores + guest memory + memory hierarchy + program.
//!
//! [`Machine::step`] executes exactly one guest instruction on one core,
//! charging cycles (including memory stalls and mispredict penalties) and
//! feeding architectural events to that core's PMU. The OS layer above picks
//! which core steps next, handles the returned traps, and delivers
//! interrupts between steps — giving interrupt semantics at instruction
//! granularity, which is what the LiMiT read-race reproduction requires.

use crate::block::LocalRun;
use crate::core::{Core, Mode, Step, Trap};
use crate::cost::CostModel;
use crate::events::EventKind;
use crate::gmem::GuestMem;
use crate::isa::Instr;
use crate::oracle::Oracle;
use crate::pmu::PmuConfig;
use crate::prog::Program;
use crate::regs::Context;
use flight::{EventData, FlightConfig, FlightRecorder, RegionMark};
use serde::{Deserialize, Serialize};
use sim_core::{CoreId, Freq, SimError, SimResult};
use sim_mem::{HierarchyConfig, MemAccess, MemorySystem};

/// Maximum shadow-call-stack depth before a fault is raised.
const MAX_CALL_DEPTH: usize = 1024;

/// Hardware configuration for the whole machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-core PMU configuration.
    pub pmu: PmuConfig,
    /// Memory-hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Per-instruction cycle costs; defaults reproduce the `cost::*`
    /// constants bit-for-bit.
    pub cost: CostModel,
    /// Core clock frequency (for reporting only; timing is in cycles).
    pub freq: Freq,
}

impl MachineConfig {
    /// A machine with `cores` cores and default everything else.
    pub fn new(cores: usize) -> Self {
        MachineConfig {
            cores,
            pmu: PmuConfig::default(),
            hierarchy: HierarchyConfig::default(),
            cost: CostModel::default(),
            freq: Freq::DEFAULT,
        }
    }

    /// Replaces the PMU configuration.
    pub fn with_pmu(mut self, pmu: PmuConfig) -> Self {
        self.pmu = pmu;
        self
    }

    /// Replaces the hierarchy configuration.
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Replaces the cycle-cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// Per-run bounds and boundary tables the kernel hands to
/// [`Machine::run_until_with`] — the kernel telling the machine how far it
/// may run before the next kernel-visible poll point.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits<'a> {
    /// Per-core clock thresholds (indexed by core number): the earliest of
    /// the core's slice expiry, the next periodic-hook fire time, and the
    /// machine-wide cycle budget. A core hands control back *before*
    /// executing an instruction at or past its threshold.
    pub stop_at: &'a [u64],
    /// Earliest wake-up time of any sleeping thread: the run stops once the
    /// running core's clock reaches it, so the kernel can wake the sleeper.
    pub wake_at: u64,
    /// Per-pc injection-arming table when an injector is attached: an armed
    /// pc is an execution boundary the kernel single-steps across.
    pub armed_pcs: Option<&'a [bool]>,
    /// Per-pc registered-LiMiT-range table (from
    /// [`crate::block::BlockMap`]): in-range pcs end local runs and wait
    /// for the arbitration minimum, one instruction at a time; their
    /// events still accrue in the batch (exact: see
    /// [`Machine::run_until_with`]).
    pub in_limit: &'a [bool],
}

/// Why [`Machine::run_until`] handed control back to the kernel. Apart from
/// [`RunExit::Trap`], the variants are advisory — the kernel re-runs its
/// full poll sequence either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// A core reached its `stop_at` threshold (slice expiry, periodic hook,
    /// or cycle budget — the kernel re-derives which).
    StopClock(CoreId),
    /// A sleeping thread's wake-up time was reached.
    Wake(CoreId),
    /// A PMI is pending on the core.
    Pmi(CoreId),
    /// The next instruction's pc is an armed injection point.
    Boundary(CoreId),
    /// A self-virtualizing spill was journaled; the kernel must consult the
    /// journal before the next instruction runs.
    SpillJournal(CoreId),
    /// The instruction trapped (syscall, halt, or fault).
    Trap(CoreId, Step),
    /// No core has a thread installed.
    Idle,
}

/// The machine.
#[derive(Debug)]
pub struct Machine {
    /// All cores.
    pub cores: Vec<Core>,
    /// Guest memory (values).
    pub mem: GuestMem,
    /// Memory hierarchy (timing + events).
    pub memsys: MemorySystem,
    /// The single program image all threads execute from.
    pub prog: Program,
    /// Runtime cycle-cost model every charge site reads.
    cost: CostModel,
    freq: Freq,
    /// Differential oracle for the torture harness; off unless enabled via
    /// [`Machine::enable_oracle`].
    oracle: Option<Oracle>,
    /// Machine-wide flight recorder; off unless enabled via
    /// [`Machine::enable_flight`]. Boxed so the disabled case costs one
    /// cold null check per emission site.
    flight: Option<Box<FlightRecorder>>,
}

impl Machine {
    /// Builds a machine running `prog`.
    pub fn new(config: MachineConfig, prog: Program) -> SimResult<Self> {
        if config.cores == 0 {
            return Err(SimError::Config("machine needs at least one core".into()));
        }
        let cores = (0..config.cores)
            .map(|i| Core::new(CoreId::new(i as u32), config.pmu))
            .collect::<SimResult<Vec<_>>>()?;
        Ok(Machine {
            cores,
            mem: GuestMem::new(),
            memsys: MemorySystem::new(config.cores, config.hierarchy)?,
            prog,
            cost: config.cost,
            freq: config.freq,
            oracle: None,
            flight: None,
        })
    }

    /// Enables the differential oracle, checking virtualized reads inside
    /// the given restart ranges. Every core gains a per-step event scratch;
    /// the overhead is zero when the oracle is off.
    pub fn enable_oracle(&mut self, ranges: &[(u32, u32)]) {
        self.oracle = Some(Oracle::new(ranges));
        for core in &mut self.cores {
            core.oracle_scratch = Some(Box::new([0; EventKind::COUNT]));
        }
    }

    /// The oracle, if enabled.
    pub fn oracle(&self) -> Option<&Oracle> {
        self.oracle.as_ref()
    }

    /// Mutable oracle access (the kernel reports counter attach/detach).
    pub fn oracle_mut(&mut self) -> Option<&mut Oracle> {
        self.oracle.as_mut()
    }

    /// Enables the flight recorder: one bounded event ring per core plus a
    /// host ring. Every emission site in the machine and the layers above
    /// guards on the option, so the cost is zero when off.
    pub fn enable_flight(&mut self, cfg: FlightConfig) {
        self.flight = Some(Box::new(FlightRecorder::new(self.cores.len(), cfg)));
    }

    /// The flight recorder, if enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_deref()
    }

    /// Mutable flight-recorder access (the kernel and harness emit into
    /// it and install marks/ranges).
    pub fn flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_deref_mut()
    }

    /// The core clock frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The runtime cycle-cost model (the kernel charges syscall entry/exit
    /// and spill costs through it).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn count(core: &mut Core, event: EventKind, n: u64) {
        // Block-stepped fast path: defer delivery into the per-core batch.
        // [`Machine::run_until`] flushes at counter reads, tag changes, and
        // before any armed counter could wrap, so the PMU observes the same
        // totals at every architecturally visible point.
        if core.batch.active {
            core.batch.counts[event.index()] += n;
            core.batch.total += n;
            return;
        }
        let tag = core.ctx.tag;
        core.pmu.count(event, n, core.mode, tag);
        // Shadow-ledger tap: user-mode events also land in the oracle
        // scratch, outside the PMU (no width limit, no fold, no spill).
        if core.mode == Mode::User {
            if let Some(scratch) = &mut core.oracle_scratch {
                scratch[event.index()] += n;
            }
        }
    }

    fn mem_access_events(core: &mut Core, acc: &MemAccess) {
        if acc.events.l1_miss {
            Self::count(core, EventKind::L1dMisses, 1);
        }
        if acc.events.l2_miss {
            Self::count(core, EventKind::L2Misses, 1);
        }
        if acc.events.llc_miss {
            Self::count(core, EventKind::LlcMisses, 1);
        }
        if acc.events.invalidations > 0 {
            Self::count(
                core,
                EventKind::CoherenceInvalidations,
                acc.events.invalidations as u64,
            );
        }
        if acc.events.remote_hit {
            Self::count(core, EventKind::RemoteHits, 1);
        }
        if acc.events.tlb_miss {
            Self::count(core, EventKind::TlbMisses, 1);
        }
        let stall = acc.latency.saturating_sub(1);
        if stall > 0 {
            Self::count(core, EventKind::MemStallCycles, stall);
        }
    }

    /// Charges `cycles`/`instrs` to a core without executing guest code —
    /// the kernel uses this to account for syscall entry/exit, interrupt
    /// handlers, and context-switch work. Events are counted in the core's
    /// *current* mode (the kernel sets `Mode::Kernel` first).
    pub fn charge(&mut self, core: CoreId, cycles: u64, instrs: u64) {
        let c = &mut self.cores[core.index()];
        c.clock += cycles;
        Self::count(c, EventKind::Cycles, cycles);
        Self::count(c, EventKind::Instructions, instrs);
    }

    /// Executes one instruction of the thread installed on `core`.
    ///
    /// Returns the step outcome; the caller (the kernel) is responsible for
    /// handling traps and checking for pending PMIs afterwards.
    pub fn step(&mut self, core_id: CoreId) -> SimResult<Step> {
        // Split borrows: core is taken by index, memory systems separately.
        let core_idx = core_id.index();
        if core_idx >= self.cores.len() {
            return Err(SimError::Program(format!("no such core {core_id}")));
        }
        if self.cores[core_idx].running.is_none() {
            return Err(SimError::Program(format!("{core_id} is idle")));
        }
        self.step_impl::<false>(core_id)
    }

    /// [`Machine::step`]'s body, monomorphized over the block-stepped fast
    /// path. With `FAST`, the per-instruction observer taps (differential
    /// oracle, flight recorder) compile out entirely — the caller
    /// ([`Machine::run_until`]) has verified both are disabled —
    /// and the caller guarantees the core exists and has a thread installed.
    fn step_impl<const FAST: bool>(&mut self, core_id: CoreId) -> SimResult<Step> {
        let fault = |msg: String| Step {
            cycles: 1,
            instrs: 0,
            trap: Some(Trap::Fault(msg)),
        };
        let core_idx = core_id.index();
        let cost = self.cost;

        let pc = self.cores[core_idx].ctx.pc;
        let Some(&instr) = self.prog.fetch(pc) else {
            // A faulting fetch never issues an instruction: no cycle charge,
            // no PMU events — there is nothing architectural to count.
            return Ok(Step {
                cycles: 0,
                instrs: 0,
                trap: Some(Trap::Fault(format!("pc {pc} out of program bounds"))),
            });
        };

        let cycles: u64;
        let mut instrs: u64 = 1;
        let mut trap: Option<Trap> = None;
        let mut next_pc = pc + 1;

        match instr {
            Instr::Imm(..)
            | Instr::Mov(..)
            | Instr::Alu(..)
            | Instr::AluImm(..)
            | Instr::Burst(_)
            | Instr::Nop => {
                apply_local(&mut self.cores[core_idx].ctx, instr);
                (cycles, instrs) = instr.local_cost(&cost).unwrap_or_default();
            }
            Instr::Load(rd, ra, off) => {
                let addr = self.cores[core_idx]
                    .ctx
                    .get(ra)
                    .wrapping_add(off as i64 as u64);
                match self.mem.read_u64(addr) {
                    Ok(v) => {
                        let now = self.cores[core_idx].clock;
                        let acc = self.memsys.access(core_id, addr, false, now);
                        let core = &mut self.cores[core_idx];
                        core.ctx.set(rd, v);
                        Self::count(core, EventKind::Loads, 1);
                        Self::mem_access_events(core, &acc);
                        cycles = cost.mem_issue + acc.latency;
                    }
                    Err(e) => {
                        let step = fault(e.message().to_string());
                        self.finish_step::<FAST>(core_idx, &step);
                        return Ok(step);
                    }
                }
            }
            Instr::Store(rs, ra, off) => {
                let ctx = &self.cores[core_idx].ctx;
                let addr = ctx.get(ra).wrapping_add(off as i64 as u64);
                let v = ctx.get(rs);
                match self.mem.write_u64(addr, v) {
                    Ok(()) => {
                        let now = self.cores[core_idx].clock;
                        let acc = self.memsys.access(core_id, addr, true, now);
                        let core = &mut self.cores[core_idx];
                        Self::count(core, EventKind::Stores, 1);
                        Self::mem_access_events(core, &acc);
                        cycles = cost.mem_issue + acc.latency;
                    }
                    Err(e) => {
                        let step = fault(e.message().to_string());
                        self.finish_step::<FAST>(core_idx, &step);
                        return Ok(step);
                    }
                }
            }
            Instr::Xchg(rd, ra, off) | Instr::FetchAdd(rd, ra, off) => {
                let ctx = &self.cores[core_idx].ctx;
                let addr = ctx.get(ra).wrapping_add(off as i64 as u64);
                let operand = ctx.get(rd);
                let old = match self.mem.read_u64(addr) {
                    Ok(v) => v,
                    Err(e) => {
                        let step = fault(e.message().to_string());
                        self.finish_step::<FAST>(core_idx, &step);
                        return Ok(step);
                    }
                };
                let new = match instr {
                    Instr::Xchg(..) => operand,
                    _ => old.wrapping_add(operand),
                };
                self.mem
                    .write_u64(addr, new)
                    .expect("write cannot fail after aligned read");
                let now = self.cores[core_idx].clock;
                let acc = self.memsys.access(core_id, addr, true, now);
                let core = &mut self.cores[core_idx];
                core.ctx.set(rd, old);
                Self::count(core, EventKind::Loads, 1);
                Self::count(core, EventKind::Stores, 1);
                Self::mem_access_events(core, &acc);
                cycles = cost.mem_issue + acc.latency + cost.atomic_penalty;
            }
            Instr::Br(..) | Instr::Jmp(_) => {
                let core = &mut self.cores[core_idx];
                let missed;
                (next_pc, cycles, missed) = resolve_branch(core, pc, instr, &cost);
                Self::count(core, EventKind::Branches, 1);
                if missed {
                    Self::count(core, EventKind::BranchMisses, 1);
                }
            }
            Instr::Call(target) => {
                cycles = cost.call;
                let core = &mut self.cores[core_idx];
                if core.ctx.call_stack.len() >= MAX_CALL_DEPTH {
                    let step = fault("call stack overflow".into());
                    self.finish_step::<FAST>(core_idx, &step);
                    return Ok(step);
                }
                core.ctx.call_stack.push(next_pc);
                next_pc = target;
            }
            Instr::Ret => {
                cycles = cost.call;
                match self.cores[core_idx].ctx.call_stack.pop() {
                    Some(ra) => next_pc = ra,
                    None => {
                        let step = fault("ret with empty call stack".into());
                        self.finish_step::<FAST>(core_idx, &step);
                        return Ok(step);
                    }
                }
            }
            Instr::Rdpmc(rd, idx) | Instr::RdpmcClear(rd, idx) => {
                let destructive = matches!(instr, Instr::RdpmcClear(..));
                let core = &mut self.cores[core_idx];
                if core.mode == Mode::User && !core.pmu.user_rdpmc() {
                    let step = fault("rdpmc: userspace counter access disabled".into());
                    self.finish_step::<FAST>(core_idx, &step);
                    return Ok(step);
                }
                if destructive && !core.pmu.config().ext_destructive_read {
                    let step = fault("rdpmc.clr: destructive-read extension disabled".into());
                    self.finish_step::<FAST>(core_idx, &step);
                    return Ok(step);
                }
                // Deferred counts must be delivered before the counter is
                // read; the read itself still precedes this instruction's
                // own cycle/instruction accrual, as in per-instruction mode.
                if core.batch.active {
                    core.flush_batch();
                }
                let value = if destructive {
                    core.pmu.read_clear(idx)
                } else {
                    core.pmu.read(idx)
                };
                match value {
                    Ok(v) => {
                        core.ctx.set(rd, v);
                        cycles = cost.rdpmc;
                    }
                    Err(e) => {
                        let step = fault(e.message().to_string());
                        self.finish_step::<FAST>(core_idx, &step);
                        return Ok(step);
                    }
                }
            }
            Instr::Rdtsc(rd) => {
                cycles = cost.rdtsc;
                let clock = self.cores[core_idx].clock;
                self.cores[core_idx].ctx.set(rd, clock);
            }
            Instr::SetTag(rs) => {
                cycles = cost.settag;
                let core = &mut self.cores[core_idx];
                if core.pmu.config().ext_tag_filter {
                    // Counts accrued under the old tag must be delivered
                    // before the tag changes.
                    if core.batch.active {
                        core.flush_batch();
                    }
                    core.ctx.tag = core.ctx.get(rs);
                }
            }
            Instr::Syscall(nr) => {
                cycles = cost.alu;
                trap = Some(Trap::Syscall(nr));
            }
            Instr::Halt => {
                cycles = cost.alu;
                trap = Some(Trap::Halt);
            }
        }

        // Oracle taps (no-ops unless enabled): an in-range `rdpmc` arms an
        // expected value from the shadow ledger; the range's final
        // instruction resolves the check against the architected result.
        if !FAST
            && self.oracle.is_some()
            && trap.is_none()
            && self.cores[core_idx].mode == Mode::User
        {
            self.oracle_observe(core_idx, pc, instr);
        }

        // Flight-recorder taps (no-ops unless enabled): region markers at
        // the fetched pc and user-mode counter reads.
        if !FAST
            && self.flight.is_some()
            && trap.is_none()
            && self.cores[core_idx].mode == Mode::User
        {
            self.flight_observe(core_idx, pc, instr);
        }

        self.cores[core_idx].ctx.pc = next_pc;
        let step = Step {
            cycles,
            instrs,
            trap,
        };
        self.finish_step::<FAST>(core_idx, &step);
        Ok(step)
    }

    /// Feeds one retired user-mode instruction to the oracle (see
    /// [`crate::oracle`]). Called with the pre-advance `pc`. Oracle arms
    /// and resolutions are mirrored into the flight recorder when both are
    /// enabled.
    fn oracle_observe(&mut self, core_idx: usize, pc: u32, instr: Instr) {
        let Some(tid) = self.cores[core_idx].running else {
            return;
        };
        match instr {
            Instr::Rdpmc(_, idx) | Instr::RdpmcClear(_, idx) => {
                let armed = match self.oracle.as_mut() {
                    Some(o) => o.observe_read(tid, idx, pc),
                    None => false,
                };
                if armed {
                    let clock = self.cores[core_idx].clock;
                    if let Some(fl) = self.flight.as_deref_mut() {
                        fl.record(core_idx, clock, Some(tid.0), EventData::OracleArm { pc });
                    }
                }
            }
            // The read sequence ends in `add dst, scratch`; any other ALU
            // op at a range end would simply never resolve a pending check.
            Instr::Alu(_, rd, _) => {
                let actual = self.cores[core_idx].ctx.get(rd);
                let clock = self.cores[core_idx].clock;
                let resolved = match self.oracle.as_mut() {
                    Some(o) => o.complete(tid, pc, actual, clock),
                    None => None,
                };
                if let Some(ok) = resolved {
                    if let Some(fl) = self.flight.as_deref_mut() {
                        fl.record(
                            core_idx,
                            clock,
                            Some(tid.0),
                            EventData::OracleCheck { pc, ok },
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// Feeds one retired user-mode instruction to the flight recorder:
    /// region enter/exit markers installed by the harness, and `rdpmc`
    /// reads classified against the registered restart ranges. Called with
    /// the pre-advance `pc`, after the instruction's effects applied.
    fn flight_observe(&mut self, core_idx: usize, pc: u32, instr: Instr) {
        let core = &self.cores[core_idx];
        let clock = core.clock;
        let tid = core.running.map(|t| t.0);
        let read_value = match instr {
            Instr::Rdpmc(rd, _) | Instr::RdpmcClear(rd, _) => Some(core.ctx.get(rd)),
            _ => None,
        };
        let Some(fl) = self.flight.as_deref_mut() else {
            return;
        };
        if let Some(mark) = fl.mark_at(pc) {
            let data = match mark {
                RegionMark::Enter => EventData::RegionEnter { pc },
                RegionMark::Exit(region) => EventData::RegionExit { region, pc },
            };
            fl.record(core_idx, clock, tid, data);
        }
        if let (Instr::Rdpmc(_, idx) | Instr::RdpmcClear(_, idx), Some(value)) = (instr, read_value)
        {
            let in_range = fl.in_limit_range(pc);
            fl.record(
                core_idx,
                clock,
                tid,
                EventData::Rdpmc {
                    slot: idx,
                    pc,
                    value,
                    in_range,
                },
            );
        }
    }

    /// Applies clock advance, cycle/instruction counting, and pending
    /// hardware spills for a completed step.
    fn finish_step<const FAST: bool>(&mut self, core_idx: usize, step: &Step) {
        {
            let core = &mut self.cores[core_idx];
            core.clock += step.cycles;
            core.retired += step.instrs;
            Self::count(core, EventKind::Cycles, step.cycles);
            Self::count(core, EventKind::Instructions, step.instrs);
        }
        // Flush this step's oracle scratch into the installed thread's
        // shadow ledger (compiled out on the fast path: the oracle is off).
        if FAST {
            self.apply_spills(core_idx);
            return;
        }
        if let Some(oracle) = &mut self.oracle {
            let core = &mut self.cores[core_idx];
            if let Some(scratch) = &mut core.oracle_scratch {
                if let Some(tid) = core.running {
                    for (i, v) in scratch.iter_mut().enumerate() {
                        if *v > 0 {
                            oracle.record(tid, EventKind::ALL[i], *v);
                        }
                        *v = 0;
                    }
                } else {
                    scratch.fill(0);
                }
            }
        }
        // Hardware enhancement 2: self-virtualizing counters spill to guest
        // memory without kernel involvement.
        self.apply_spills(core_idx);
    }

    /// Applies any pending self-virtualizing spills on `core_idx`: each
    /// spilled modulus lands in its guest-memory accumulator and the spill
    /// microcode cost lands on the clock.
    fn apply_spills(&mut self, core_idx: usize) {
        // Spills only appear after an armed self-virtualizing counter
        // wraps; almost every step has none to drain.
        if !self.cores[core_idx].pmu.has_spills() {
            return;
        }
        let spills = self.cores[core_idx].pmu.take_spills();
        for spill in spills {
            // Spill addresses are validated (aligned) at configuration time
            // by the kernel; a failure here is a substrate bug.
            self.mem
                .fetch_add_u64(spill.addr, spill.amount)
                .expect("spill address must be aligned");
            self.cores[core_idx].clock += self.cost.spill;
            let clock = self.cores[core_idx].clock;
            let tid = self.cores[core_idx].running.map(|t| t.0);
            if let Some(fl) = self.flight.as_deref_mut() {
                fl.record(
                    core_idx,
                    clock,
                    tid,
                    EventData::Spill {
                        addr: spill.addr,
                        amount: spill.amount,
                    },
                );
            }
        }
    }

    /// Lifetime guest instructions retired across all cores (the numerator
    /// of the interpreter-throughput benchmark).
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    /// Block-stepped execution: runs guest instructions — preserving the
    /// exact per-instruction (clock, core-id) arbitration order of the
    /// single-step loop — until a kernel-visible event occurs, batching PMU
    /// accrual in between. The kernel supplies the poll-point thresholds in
    /// `limits`; any exit returns control so the kernel can re-run its full
    /// legacy decision sequence.
    ///
    /// Exactness argument: within `run_until` the kernel never touches core
    /// or PMU state, so deferring event delivery is observable only at
    /// (a) counter reads (`rdpmc` flushes in-arm), (b) tag changes (`settag`
    /// flushes in-arm), (c) armed-counter overflow side effects (PMI, spill).
    /// For (c): after every instruction, if the batch total has reached the
    /// cached armed headroom, the batch is flushed immediately — and since
    /// every armed slot's accrued share is bounded by the batch total, no
    /// slot can have wrapped *before* the instruction at which the flush
    /// happens. The overflow is therefore delivered at the same instruction
    /// boundary per-instruction accrual would deliver it.
    ///
    /// This form executes one instruction at a time; the kernel calls
    /// [`Machine::run_until_with`], which also executes local runs as units.
    pub fn run_until(&mut self, limits: &RunLimits) -> SimResult<RunExit> {
        self.run_until_with(limits, &[])
    }

    /// [`Machine::run_until`] with the local-run table `runs`
    /// ([`crate::block::BlockMap::runs`], built for this program against
    /// the same ranges and armed pcs as `limits` and this machine's cost
    /// model). With every per-instruction observer off, a pc that starts a
    /// run executes the whole run, plus its branch tail, as one unit —
    /// registers through the same helper a step uses, then clock, retired
    /// count and batched events added once — whenever the unit provably
    /// ends before every poll point and every armed-counter overflow:
    ///
    /// * `clock + cycles + worst branch < min(stop_at, wake_at)`, so no
    ///   instruction inside it could have met a stop, wake or run-ahead
    ///   bound (each of which is checked against a clock no later than
    ///   the unit's end);
    /// * `batch.total + events + worst branch events < batch.headroom`, so
    ///   the headroom guard would have flushed after none of them.
    ///
    /// A run holds no in-range or armed pc, and a PMI can only appear at a
    /// flush, so no other per-instruction check could fire inside it. If
    /// either bound fails, the pc executes one instruction at a time.
    pub fn run_until_with(&mut self, limits: &RunLimits, runs: &[LocalRun]) -> SimResult<RunExit> {
        // One gate check per run (not per instruction): with every
        // per-instruction observer off, steps dispatch to the monomorphized
        // fast body whose oracle/flight taps compile out.
        let fast = self.oracle.is_none() && self.flight.is_none();
        // Busy-key snapshot: within a run, only the picked core's clock
        // moves (the busy set and every other clock change only through
        // kernel actions, which happen outside `run_until`), so the
        // rotation scan can run over this compact array instead of
        // touching every `Core` each time. A 64-entry stack buffer covers
        // every realistic topology; wider machines spill to a heap buffer
        // (one allocation per run, not per instruction) so every core
        // stays schedulable.
        const INLINE_CORES: usize = 64;
        let n = self.cores.len();
        let mut inline = [(u64::MAX, u32::MAX); INLINE_CORES];
        let mut heap = Vec::new();
        let keys: &mut [(u64, u32)] = if n <= INLINE_CORES {
            &mut inline[..n]
        } else {
            heap.resize(n, (u64::MAX, u32::MAX));
            &mut heap
        };
        for (key, c) in keys.iter_mut().zip(&self.cores) {
            if c.is_busy() {
                *key = (c.clock, c.id.0);
            }
        }
        let exit = loop {
            // Two-minimum scan, lexicographic on (clock, core id) — the
            // same first-minimum the single-step loop's `next_busy_core`
            // picks each instruction. Idle cores sit at the MAX sentinel
            // and can never win (a real clock never reaches u64::MAX).
            let mut first = usize::MAX;
            let mut first_key = (u64::MAX, u32::MAX);
            let mut others_min = (u64::MAX, u32::MAX);
            for (i, &key) in keys.iter().enumerate() {
                if key < first_key {
                    others_min = first_key;
                    first_key = key;
                    first = i;
                } else if key < others_min {
                    others_min = key;
                }
            }
            if first == usize::MAX {
                break RunExit::Idle;
            }
            let r = if fast {
                self.run_core::<true>(first, others_min, limits, runs)?
            } else {
                self.run_core::<false>(first, others_min, limits, runs)?
            };
            match r {
                Some(exit) => break exit,
                // Budget rotation: another core became the arbitration
                // minimum; update the mover's key and continue there.
                None => {
                    let c = &self.cores[first];
                    keys[first] = (c.clock, c.id.0);
                }
            }
        };
        self.settle_batches();
        Ok(exit)
    }

    /// Runs the thread on core `idx` until a kernel-visible event (`Some`)
    /// or until another core becomes the arbitration minimum (`None`).
    fn run_core<const FAST: bool>(
        &mut self,
        idx: usize,
        others_min: (u64, u32),
        limits: &RunLimits,
        runs: &[LocalRun],
    ) -> SimResult<Option<RunExit>> {
        let id = self.cores[idx].id;
        let stop = limits.stop_at.get(idx).copied().unwrap_or(u64::MAX);
        let unit_limit = stop.min(limits.wake_at);
        // An unconsumed spill journal must reach the kernel before this
        // core executes anything further: the kernel consults the journal
        // only for the arbitration-minimum core, so a journaled core that
        // stepped here could execute an instruction the restart fix-up is
        // about to rewind over — running it twice and diverging from
        // single-step. Checked once at entry, not per instruction: the
        // post-step check below returns the moment a step journals a
        // spill, so the journal is provably zero at every later iteration.
        {
            let core = &self.cores[idx];
            if core.pmu.spill_journal() > 0 {
                let ahead = (core.clock, id.0) >= others_min;
                return Ok((!ahead).then_some(RunExit::SpillJournal(id)));
            }
        }
        // Batching stays on until the run exits, LiMiT read sequences
        // included: `rdpmc` flushes before it reads, the headroom guard
        // flushes at the instruction whose events overflow an armed
        // counter, and every exit settles — so the PMU is exact wherever
        // the guest or the kernel can observe it.
        {
            let core = &mut self.cores[idx];
            if !core.batch.active {
                core.batch.active = true;
                core.batch.headroom = core.pmu.armed_headroom();
            }
        }
        loop {
            // Pre-instruction poll points: the checks the single-step
            // kernel loop runs between steps. A kernel-visible exit may
            // only fire while this core is the arbitration minimum — the
            // position the single-step loop would consult it from. When
            // the core has run ahead (see below), a would-be exit instead
            // rotates (`None`): the exit fires once the core is picked as
            // the minimum again, in exact legacy order.
            let core = &self.cores[idx];
            let ahead = (core.clock, id.0) >= others_min;
            if core.clock >= stop {
                return Ok((!ahead).then_some(RunExit::StopClock(id)));
            }
            if core.clock >= limits.wake_at {
                return Ok((!ahead).then_some(RunExit::Wake(id)));
            }
            if core.pmu.pmi_pending() {
                return Ok((!ahead).then_some(RunExit::Pmi(id)));
            }
            let pc = core.ctx.pc;
            if let Some(armed) = limits.armed_pcs {
                if armed.get(pc as usize).copied().unwrap_or(false) {
                    return Ok((!ahead).then_some(RunExit::Boundary(id)));
                }
            }
            // A local run executes as one unit when it provably crosses no
            // poll point and no armed overflow (see `run_until_with`);
            // ahead or not, every instruction in it would have run.
            if FAST {
                if let Some(&run) = runs.get(pc as usize) {
                    if run.len > 0 && self.run_local(idx, pc, run, unit_limit) {
                        continue;
                    }
                }
            }
            // Registered LiMiT read sequences run one instruction at a
            // time: the restart fix-up can rewind onto any of their pcs.
            let in_range = limits.in_limit.get(pc as usize).copied().unwrap_or(false);
            if ahead {
                // Run-ahead: a core past the arbitration minimum may keep
                // executing *core-local* instructions — they commute with
                // every other core's execution, so the memory-system event
                // stream and the order of kernel-visible events are
                // unchanged (instructions that touch shared state rotate
                // and wait their turn). The cost bound keeps the step from
                // crossing a sleeper wake-up, whose boundary is defined by
                // the first post-step clock to reach it on *any* core.
                if in_range {
                    return Ok(None);
                }
                match self
                    .prog
                    .fetch(pc)
                    .and_then(|i| i.run_ahead_bound(&self.cost))
                {
                    Some(bound) if self.cores[idx].clock.saturating_add(bound) < limits.wake_at => {
                    }
                    _ => return Ok(None),
                }
            }
            let step = self.step_impl::<FAST>(id)?;
            let core = &mut self.cores[idx];
            if core.batch.total >= core.batch.headroom {
                // An armed counter may have wrapped during this
                // instruction: deliver now, so the PMI or spill lands at
                // the same boundary per-instruction accrual gives it.
                core.flush_batch();
                self.apply_spills(idx);
            }
            // Post-step exits fire regardless of run-ahead: a trap here can
            // only be a fault (syscalls/halts never run ahead), which
            // aborts the whole run; a spill-journal consult and the wake
            // boundary are keyed to *this* step having happened, and the
            // journal consult is core-local. The wake-up check mirrors the
            // single-step loop, where the sleeper wakes at the first
            // instruction boundary after any core's clock crosses the
            // deadline — the run-ahead cost bound above guarantees an
            // ahead core cannot be the one that crosses it.
            if step.trap.is_some() {
                return Ok(Some(RunExit::Trap(id, step)));
            }
            let core = &self.cores[idx];
            if core.pmu.spill_journal() > 0 {
                return Ok(Some(RunExit::SpillJournal(id)));
            }
            if core.clock >= limits.wake_at {
                return Ok(Some(RunExit::Wake(id)));
            }
        }
    }

    /// Executes the local run `run` at `pc` on core `idx`, plus its branch
    /// tail, as one unit — if it ends before `limit` (the earlier of the
    /// core's stop threshold and the wake-up time) and its events fit the
    /// batch headroom, with the branch bounded by its mispredicted cost.
    /// Returns whether it ran; on `false` nothing changed.
    #[inline(always)]
    fn run_local(&mut self, idx: usize, pc: u32, run: LocalRun, limit: u64) -> bool {
        let cost = &self.cost;
        let core = &mut self.cores[idx];
        // A branch adds its cycles plus one each to Instructions, Branches
        // and (at worst) BranchMisses.
        let (branch_cycles, branch_events) = if run.branch {
            let worst = cost.branch.saturating_add(cost.branch_miss_penalty);
            (worst, worst.saturating_add(3))
        } else {
            (0, 0)
        };
        let end_clock = core
            .clock
            .saturating_add(run.cycles)
            .saturating_add(branch_cycles);
        let events = run
            .cycles
            .saturating_add(run.instrs)
            .saturating_add(branch_events);
        if end_clock >= limit || core.batch.total.saturating_add(events) >= core.batch.headroom {
            return false;
        }
        let start = pc as usize;
        let end = start + run.len as usize;
        for &instr in &self.prog.instrs[start..end] {
            apply_local(&mut core.ctx, instr);
        }
        let (mut cycles, mut instrs, mut next) = (run.cycles, run.instrs, end as u32);
        if run.branch {
            let missed;
            let branch_cost;
            (next, branch_cost, missed) =
                resolve_branch(core, end as u32, self.prog.instrs[end], cost);
            cycles += branch_cost;
            instrs += 1;
            let batch = &mut core.batch;
            batch.counts[EventKind::Branches.index()] += 1;
            batch.counts[EventKind::BranchMisses.index()] += missed as u64;
            batch.total += 1 + missed as u64;
        }
        core.ctx.pc = next;
        core.clock += cycles;
        core.retired += instrs;
        let batch = &mut core.batch;
        batch.counts[EventKind::Cycles.index()] += cycles;
        batch.counts[EventKind::Instructions.index()] += instrs;
        batch.total += cycles + instrs;
        true
    }

    /// Delivers every core's outstanding batched counts and deactivates
    /// batching; called at every `run_until` exit so kernel-side reads see
    /// exact PMU state. Final flushes cannot wrap an armed counter (the
    /// in-run guard flushed any batch that got within reach), so no PMI or
    /// spill can appear here.
    fn settle_batches(&mut self) {
        for core in &mut self.cores {
            if core.batch.active {
                core.settle_batch();
            }
        }
    }

    /// Returns the busy core with the smallest local clock, if any — the
    /// next core the OS loop should advance.
    pub fn next_busy_core(&self) -> Option<CoreId> {
        self.cores
            .iter()
            .filter(|c| c.is_busy())
            .min_by_key(|c| c.clock)
            .map(|c| c.id)
    }

    /// The maximum clock across all cores (the machine-wide "time now").
    pub fn global_clock(&self) -> u64 {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }
}

/// Applies the register effect of a core-local, PMU-silent instruction
/// ([`Instr::local_cost`]); `Nop` and `Burst` have none, and any other
/// instruction is left alone. The one definition of these semantics,
/// shared by per-instruction steps and local-run units.
#[inline(always)]
fn apply_local(ctx: &mut Context, instr: Instr) {
    match instr {
        Instr::Imm(rd, v) => ctx.set(rd, v),
        Instr::Mov(rd, rs) => ctx.set(rd, ctx.get(rs)),
        Instr::Alu(op, rd, rs) => ctx.set(rd, op.apply(ctx.get(rd), ctx.get(rs))),
        Instr::AluImm(op, rd, v) => ctx.set(rd, op.apply(ctx.get(rd), v)),
        _ => {}
    }
}

/// Resolves the `Br` or `Jmp` at `pc` on `core`: `(next pc, cycles,
/// mispredicted)`. A `Br` trains the predictor; a `Jmp` never misses. The
/// caller accrues `Branches` (and `BranchMisses` on a miss).
#[inline(always)]
fn resolve_branch(core: &mut Core, pc: u32, instr: Instr, cost: &CostModel) -> (u32, u64, bool) {
    match instr {
        Instr::Br(cond, a, b, target) => {
            let taken = cond.eval(core.ctx.get(a), core.ctx.get(b));
            let missed = core.predictor.observe(pc, taken);
            let next = if taken { target } else { pc + 1 };
            let penalty = if missed { cost.branch_miss_penalty } else { 0 };
            (next, cost.branch + penalty, missed)
        }
        Instr::Jmp(target) => (target, cost.branch, false),
        _ => unreachable!("resolve_branch on {instr}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::Cond;
    use crate::pmu::CounterCfg;
    use crate::regs::{Context, Reg};
    use sim_core::ThreadId;
    use sim_mem::HierarchyConfig;

    fn floor_prog() -> Program {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        for _ in 0..6 {
            a.alui_add(Reg::R1, 1);
        }
        a.alui_add(Reg::R2, 1);
        a.br(Cond::Ne, Reg::R2, Reg::R0, top);
        a.assemble().unwrap()
    }

    fn machine_with(prog: Program) -> Machine {
        let cfg = MachineConfig::new(2).with_hierarchy(HierarchyConfig::tiny());
        Machine::new(cfg, prog).unwrap()
    }

    /// Installs a pseudo-thread at `entry` on core 0 in user mode.
    fn install(m: &mut Machine, entry: u32) {
        let core = &mut m.cores[0];
        core.ctx = Context::at(entry);
        core.running = Some(ThreadId::new(1));
        core.mode = Mode::User;
    }

    /// Steps core 0 until `Halt` or `max` instructions; returns step count.
    fn run_to_halt(m: &mut Machine, max: usize) -> usize {
        for i in 0..max {
            let step = m.step(CoreId::new(0)).unwrap();
            match step.trap {
                Some(Trap::Halt) => return i + 1,
                Some(Trap::Fault(msg)) => panic!("unexpected fault: {msg}"),
                _ => {}
            }
        }
        panic!("did not halt within {max} steps");
    }

    #[test]
    fn run_until_exits_on_a_journaled_core_before_it_steps_again() {
        let mut m = machine_with(floor_prog());
        install(&mut m, 0);
        // A journal entry left from an earlier run (e.g. the kernel
        // consulted a different core at its loop top): the machine must
        // hand control back before this core executes anything, or the
        // restart fix-up would rewind over an already-executed
        // instruction and run it twice.
        m.cores[0].pmu.journal_spills(1);
        let in_limit = vec![false; 16];
        let stop = [u64::MAX, u64::MAX];
        let limits = RunLimits {
            stop_at: &stop,
            wake_at: u64::MAX,
            armed_pcs: None,
            in_limit: &in_limit,
        };
        let exit = m.run_until(&limits).unwrap();
        assert_eq!(exit, RunExit::SpillJournal(CoreId::new(0)));
        assert_eq!(
            m.cores[0].retired, 0,
            "journaled core stepped before the kernel could consult the journal"
        );
    }

    #[test]
    fn simultaneous_overflow_on_two_slots_is_identical_across_exec_paths() {
        // Two armed slots counting the same event, both 10 events from the
        // wrap point: they overflow at the same instruction. The block
        // executor's armed-headroom guard must deliver both PMIs at that
        // exact instruction boundary (not one flush late), matching
        // single-step, and in slot order.
        let run = |block: bool| {
            let cfg = MachineConfig::new(2)
                .with_hierarchy(HierarchyConfig::tiny())
                .with_pmu(PmuConfig {
                    counter_bits: 8,
                    ..Default::default()
                });
            let mut m = Machine::new(cfg, floor_prog()).unwrap();
            install(&mut m, 0);
            let pmu = &mut m.cores[0].pmu;
            pmu.configure(0, CounterCfg::user(EventKind::Instructions).with_pmi())
                .unwrap();
            pmu.configure(1, CounterCfg::user(EventKind::Instructions).with_pmi())
                .unwrap();
            pmu.write(0, 256 - 10).unwrap();
            pmu.write(1, 256 - 10).unwrap();
            if block {
                let in_limit = vec![false; 16];
                let stop = [u64::MAX, u64::MAX];
                let limits = RunLimits {
                    stop_at: &stop,
                    wake_at: u64::MAX,
                    armed_pcs: None,
                    in_limit: &in_limit,
                };
                let exit = m.run_until(&limits).unwrap();
                assert_eq!(exit, RunExit::Pmi(CoreId::new(0)));
            } else {
                while !m.cores[0].pmu.pmi_pending() {
                    m.step(CoreId::new(0)).unwrap();
                }
            }
            let core = &mut m.cores[0];
            let mut pmis = Vec::new();
            while let Some(i) = core.pmu.take_pmi() {
                pmis.push(i);
            }
            (
                core.retired,
                pmis,
                core.pmu.read(0).unwrap(),
                core.pmu.read(1).unwrap(),
            )
        };
        let single = run(false);
        let block = run(true);
        assert_eq!(
            single, block,
            "block-mode simultaneous overflow diverged from single-step"
        );
        assert_eq!(single.1, vec![0, 1], "both PMIs, slot order");
    }

    #[test]
    fn machines_wider_than_64_cores_are_rejected_at_construction() {
        // The coherence sharer set is a u64 bitmask, so MemorySystem (and
        // therefore Machine::new) caps machines at 64 cores. run_until's
        // key buffer no longer depends on that cap (it spills to the heap
        // past 64 entries), but the cap itself must hold: a wider machine
        // that slipped through would once have hit a truncated scheduler
        // scan that left high cores busy-but-unscheduled forever.
        let cfg = MachineConfig::new(66).with_hierarchy(HierarchyConfig::tiny());
        assert!(matches!(
            Machine::new(cfg, floor_prog()),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn run_until_schedules_the_highest_supported_core() {
        let cfg = MachineConfig::new(64).with_hierarchy(HierarchyConfig::tiny());
        let mut m = Machine::new(cfg, floor_prog()).unwrap();
        // Only the last core is busy; it must still be picked and run to
        // its stop threshold rather than reported Idle.
        let hi = 63;
        m.cores[hi].ctx = Context::at(0);
        m.cores[hi].running = Some(ThreadId::new(1));
        m.cores[hi].mode = Mode::User;
        let in_limit = vec![false; 16];
        let stop = vec![1_000u64; 64];
        let limits = RunLimits {
            stop_at: &stop,
            wake_at: u64::MAX,
            armed_pcs: None,
            in_limit: &in_limit,
        };
        let exit = m.run_until(&limits).unwrap();
        assert_eq!(exit, RunExit::StopClock(CoreId::new(hi as u32)));
        assert!(m.cores[hi].retired > 0, "high core was never scheduled");
    }

    #[test]
    fn arithmetic_program_computes() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 6);
        a.imm(Reg::R2, 7);
        a.alu(crate::isa::AluOp::Mul, Reg::R1, Reg::R2);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].ctx.get(Reg::R1), 42);
    }

    #[test]
    fn loop_with_branch_iterates_correct_count() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 10);
        a.imm(Reg::R2, 0);
        a.imm(Reg::R3, 0); // iteration counter
        let top = a.new_label();
        a.bind(top);
        a.alui_add(Reg::R3, 1);
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        run_to_halt(&mut m, 100);
        assert_eq!(m.cores[0].ctx.get(Reg::R3), 10);
    }

    #[test]
    fn load_store_round_trip_through_guest_memory() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 0x2000); // address
        a.imm(Reg::R2, 0xABCD);
        a.store(Reg::R2, Reg::R1, 0);
        a.load(Reg::R3, Reg::R1, 0);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].ctx.get(Reg::R3), 0xABCD);
        assert_eq!(m.mem.read_u64(0x2000).unwrap(), 0xABCD);
    }

    #[test]
    fn xchg_swaps_and_fetch_add_accumulates() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 0x3000);
        a.imm(Reg::R2, 5);
        a.xchg(Reg::R2, Reg::R1, 0); // mem=5, r2=old(0)
        a.imm(Reg::R3, 10);
        a.fetch_add(Reg::R3, Reg::R1, 0); // mem=15, r3=5
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].ctx.get(Reg::R2), 0);
        assert_eq!(m.cores[0].ctx.get(Reg::R3), 5);
        assert_eq!(m.mem.read_u64(0x3000).unwrap(), 15);
    }

    #[test]
    fn call_ret_uses_shadow_stack() {
        let mut a = Asm::new();
        let func = a.new_label();
        a.call(func); // pc 0
        a.halt(); // pc 1
        a.bind(func);
        a.imm(Reg::R5, 77); // pc 2
        a.ret(); // pc 3
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].ctx.get(Reg::R5), 77);
    }

    #[test]
    fn ret_on_empty_stack_faults() {
        let mut a = Asm::new();
        a.ret();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        let step = m.step(CoreId::new(0)).unwrap();
        assert!(matches!(step.trap, Some(Trap::Fault(_))));
    }

    #[test]
    fn rdpmc_faults_in_user_mode_when_disabled() {
        let mut a = Asm::new();
        a.rdpmc(Reg::R1, 0);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        let step = m.step(CoreId::new(0)).unwrap();
        match step.trap {
            Some(Trap::Fault(msg)) => assert!(msg.contains("rdpmc")),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn rdpmc_reads_counter_when_enabled() {
        let mut a = Asm::new();
        a.burst(50);
        a.rdpmc(Reg::R1, 0);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Instructions))
            .unwrap();
        m.cores[0].pmu.set_user_rdpmc(true);
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        // Burst retired 50 instructions before the read.
        assert_eq!(m.cores[0].ctx.get(Reg::R1), 50);
    }

    #[test]
    fn instruction_and_cycle_counting_is_exact_for_alu_code() {
        let mut a = Asm::new();
        for _ in 0..10 {
            a.nop();
        }
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Instructions))
            .unwrap();
        m.cores[0]
            .pmu
            .configure(1, CounterCfg::user(EventKind::Cycles))
            .unwrap();
        install(&mut m, 0);
        run_to_halt(&mut m, 20);
        // 10 nops + halt = 11 instructions, 11 cycles (all single-cycle).
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), 11);
        assert_eq!(m.cores[0].pmu.read(1).unwrap(), 11);
    }

    #[test]
    fn kernel_mode_events_excluded_from_user_counters() {
        let mut a = Asm::new();
        a.nop();
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Cycles))
            .unwrap();
        install(&mut m, 0);
        // Kernel work before the thread runs.
        m.cores[0].mode = Mode::Kernel;
        m.charge(CoreId::new(0), 1000, 300);
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), 0);
        m.cores[0].mode = Mode::User;
        run_to_halt(&mut m, 5);
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), 2);
    }

    #[test]
    fn branch_events_and_mispredicts_are_counted() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 100);
        a.imm(Reg::R2, 0);
        let top = a.new_label();
        a.bind(top);
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Branches))
            .unwrap();
        m.cores[0]
            .pmu
            .configure(1, CounterCfg::user(EventKind::BranchMisses))
            .unwrap();
        install(&mut m, 0);
        run_to_halt(&mut m, 500);
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), 100);
        let misses = m.cores[0].pmu.read(1).unwrap();
        assert!(
            misses <= 5,
            "loop branch predicts well, got {misses} misses"
        );
    }

    #[test]
    fn cache_miss_events_flow_to_pmu() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 0x10000);
        // Two loads to the same line: first misses everywhere, second hits L1.
        a.load(Reg::R2, Reg::R1, 0);
        a.load(Reg::R3, Reg::R1, 0);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::L1dMisses))
            .unwrap();
        m.cores[0]
            .pmu
            .configure(1, CounterCfg::user(EventKind::LlcMisses))
            .unwrap();
        m.cores[0]
            .pmu
            .configure(2, CounterCfg::user(EventKind::Loads))
            .unwrap();
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), 1);
        assert_eq!(m.cores[0].pmu.read(1).unwrap(), 1);
        assert_eq!(m.cores[0].pmu.read(2).unwrap(), 2);
    }

    #[test]
    fn memory_latency_is_charged_to_the_clock() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 0x10000);
        a.load(Reg::R2, Reg::R1, 0);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        let before = m.cores[0].clock;
        m.step(CoreId::new(0)).unwrap(); // imm
        let after_imm = m.cores[0].clock;
        m.step(CoreId::new(0)).unwrap(); // cold load
        let after_load = m.cores[0].clock;
        assert_eq!(after_imm - before, 1);
        // Tiny hierarchy: dram 50 + llc 10 + issue 1 = 61.
        assert_eq!(after_load - after_imm, 61);
    }

    #[test]
    fn rdtsc_returns_clock() {
        let mut a = Asm::new();
        a.burst(99);
        a.rdtsc(Reg::R1);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].ctx.get(Reg::R1), 99);
    }

    #[test]
    fn pc_out_of_bounds_faults() {
        let mut a = Asm::new();
        a.nop(); // falls off the end
        let mut m = machine_with(a.assemble().unwrap());
        install(&mut m, 0);
        m.step(CoreId::new(0)).unwrap();
        let step = m.step(CoreId::new(0)).unwrap();
        assert!(matches!(step.trap, Some(Trap::Fault(_))));
    }

    #[test]
    fn faulting_fetch_accrues_no_cycles_or_events() {
        let mut a = Asm::new();
        a.nop(); // falls off the end
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Cycles))
            .unwrap();
        m.cores[0]
            .pmu
            .configure(1, CounterCfg::user(EventKind::Instructions))
            .unwrap();
        install(&mut m, 0);
        m.step(CoreId::new(0)).unwrap(); // nop
        let clock = m.cores[0].clock;
        let cycles = m.cores[0].pmu.read(0).unwrap();
        let instrs = m.cores[0].pmu.read(1).unwrap();
        let step = m.step(CoreId::new(0)).unwrap(); // out-of-bounds fetch
        assert!(matches!(step.trap, Some(Trap::Fault(_))));
        assert_eq!(step.cycles, 0);
        assert_eq!(step.instrs, 0);
        assert_eq!(
            m.cores[0].clock, clock,
            "faulting fetch must not advance the clock"
        );
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), cycles);
        assert_eq!(m.cores[0].pmu.read(1).unwrap(), instrs);
    }

    #[test]
    fn stepping_idle_core_is_an_error() {
        let mut a = Asm::new();
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        assert!(m.step(CoreId::new(0)).is_err());
    }

    #[test]
    fn next_busy_core_picks_min_clock() {
        let mut a = Asm::new();
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        assert_eq!(m.next_busy_core(), None);
        m.cores[0].running = Some(ThreadId::new(1));
        m.cores[0].clock = 100;
        m.cores[1].running = Some(ThreadId::new(2));
        m.cores[1].clock = 50;
        assert_eq!(m.next_busy_core(), Some(CoreId::new(1)));
    }

    #[test]
    fn destructive_read_requires_extension() {
        let mut a = Asm::new();
        a.rdpmc_clear(Reg::R1, 0);
        a.halt();
        let mut m = machine_with(a.assemble().unwrap());
        m.cores[0].pmu.set_user_rdpmc(true);
        install(&mut m, 0);
        let step = m.step(CoreId::new(0)).unwrap();
        assert!(matches!(step.trap, Some(Trap::Fault(_))));
    }

    #[test]
    fn destructive_read_reads_and_clears_when_enabled() {
        let mut a = Asm::new();
        a.burst(10);
        a.rdpmc_clear(Reg::R1, 0);
        a.rdpmc(Reg::R2, 0);
        a.halt();
        let cfg = MachineConfig::new(1)
            .with_hierarchy(HierarchyConfig::tiny())
            .with_pmu(PmuConfig {
                ext_destructive_read: true,
                ..Default::default()
            });
        let mut m = Machine::new(cfg, a.assemble().unwrap()).unwrap();
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Instructions))
            .unwrap();
        m.cores[0].pmu.set_user_rdpmc(true);
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        assert_eq!(m.cores[0].ctx.get(Reg::R1), 10);
        // Second read sees only the destructive read itself.
        assert_eq!(m.cores[0].ctx.get(Reg::R2), 1);
    }

    #[test]
    fn self_virtualizing_spill_lands_in_guest_memory() {
        let mut a = Asm::new();
        a.burst(100); // overflows an 8-bit counter even within one burst? no: burst counts as 100 instrs
        a.burst(100);
        a.burst(100);
        a.halt();
        let cfg = MachineConfig::new(1)
            .with_hierarchy(HierarchyConfig::tiny())
            .with_pmu(PmuConfig {
                counter_bits: 8,
                ext_self_virtualizing: true,
                ..Default::default()
            });
        let mut m = Machine::new(cfg, a.assemble().unwrap()).unwrap();
        let spill_addr = 0x8000;
        m.cores[0]
            .pmu
            .configure(
                0,
                CounterCfg::user(EventKind::Instructions).with_spill(spill_addr),
            )
            .unwrap();
        install(&mut m, 0);
        run_to_halt(&mut m, 10);
        let spilled = m.mem.read_u64(spill_addr).unwrap();
        let residue = m.cores[0].pmu.read(0).unwrap();
        // 301 instructions total (3 bursts + halt): spill + residue = 301.
        assert_eq!(spilled + residue, 301);
        assert!(spilled >= 256);
        assert!(!m.cores[0].pmu.pmi_pending());
    }

    #[test]
    fn tag_filter_excludes_differently_tagged_code() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 1);
        a.set_tag(Reg::R1); // tag=1
        a.burst(10); // counted
        a.imm(Reg::R1, 2);
        a.set_tag(Reg::R1); // tag=2
        a.burst(20); // not counted
        a.halt();
        let cfg = MachineConfig::new(1)
            .with_hierarchy(HierarchyConfig::tiny())
            .with_pmu(PmuConfig {
                ext_tag_filter: true,
                ..Default::default()
            });
        let mut m = Machine::new(cfg, a.assemble().unwrap()).unwrap();
        m.cores[0]
            .pmu
            .configure(0, CounterCfg::user(EventKind::Instructions).with_tag(1))
            .unwrap();
        install(&mut m, 0);
        run_to_halt(&mut m, 20);
        // Counts: imm(r1,2) + settag + burst(10) while tag==1 => 12.
        assert_eq!(m.cores[0].pmu.read(0).unwrap(), 12);
    }
}
