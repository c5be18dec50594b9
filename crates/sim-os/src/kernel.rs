//! The kernel proper: run loop, scheduling, interrupts, syscall dispatch.
//!
//! The loop advances the busy core with the smallest local clock by one
//! guest instruction at a time. Before each step it delivers pending
//! counter-overflow interrupts and expires timeslices — so both land at
//! instruction boundaries, exactly where real asynchronous events land
//! relative to the LiMiT read sequence.

use crate::futex::FutexTable;
use crate::inject::{InjectAction, Injection, Injector};
use crate::io::{IoParams, IoRing, IoSubsystem, PendingIo, DEVICES, DEVICE_NAMES};
use crate::limitmod::{LimitMod, RangeReg};
use crate::perf::{PerfFd, PerfSubsystem, Sample};
use crate::sched::Scheduler;
use crate::syscall::{decode_event, validate_limit_slot, Sys, SYS_ERR};
use crate::thread::{Thread, ThreadState, VCounter};
use flight::EventData;
use sim_core::{CoreId, SimError, SimResult, ThreadId};
use sim_cpu::pmu::CounterCfg;
use sim_cpu::{Machine, Mode, Reg, Trap};

/// How the kernel drives the machine between its poll points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Block-stepped execution with batched event accrual
    /// ([`sim_cpu::Machine::run_until`]): the kernel hands the machine its
    /// poll-point thresholds and gets control back at the next
    /// kernel-visible event. Automatically falls back to single-stepping
    /// whenever a per-instruction observer (oracle or flight recorder) is
    /// attached.
    #[default]
    Block,
    /// The reference per-instruction loop: one `Machine::step` per kernel
    /// loop iteration.
    SingleStep,
}

/// Kernel tuning parameters.
///
/// The cycle costs are documented substitutions for measured Linux costs of
/// the paper's era (see DESIGN.md §2 and `sim_cpu::cost`).
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Scheduler timeslice in cycles (default 1 ms at 2.5 GHz).
    pub quantum: u64,
    /// Direct cost of a context switch, split across switch-out/in.
    pub ctx_switch_cost: u64,
    /// Kernel cost of one counter-overflow interrupt.
    pub pmi_cost: u64,
    /// Kernel work inside `perf_read` beyond syscall entry/exit (locking,
    /// state reconciliation — what makes a perf read microseconds, not
    /// nanoseconds).
    pub perf_read_work: u64,
    /// Kernel work inside `perf_open`.
    pub perf_open_work: u64,
    /// Whether the LiMiT restartable-sequence fix-up is active (E4's
    /// ablation knob).
    pub restart_fixup: bool,
    /// Hard budget on the global clock; exceeding it aborts the run.
    pub max_cycles: u64,
    /// Execution strategy (block-stepped by default; the differential
    /// harness pins `SingleStep` to compare against).
    pub exec: ExecMode,
    /// Blocking-I/O device latency model.
    pub io: IoParams,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            quantum: 2_500_000,
            ctx_switch_cost: 3_000,
            pmi_cost: 1_200,
            perf_read_work: 2_500,
            perf_open_work: 20_000,
            restart_fixup: true,
            max_cycles: 20_000_000_000,
            exec: ExecMode::Block,
            io: IoParams::default(),
        }
    }
}

/// End-of-run accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Global clock (max across cores) when the last thread exited.
    pub total_cycles: u64,
    /// Thread switch-ins.
    pub context_switches: u64,
    /// Involuntary preemptions.
    pub preemptions: u64,
    /// Cross-core migrations.
    pub migrations: u64,
    /// Overflow interrupts delivered.
    pub pmis: u64,
    /// LiMiT fold operations (switch-out + overflow).
    pub limit_folds: u64,
    /// LiMiT restartable-sequence rewinds performed.
    pub limit_fixups: u64,
    /// Races observed while the fix-up was disabled.
    pub limit_unfixed_races: u64,
    /// Syscalls dispatched.
    pub syscalls: u64,
    /// Restart-range registrations rejected for overlapping a different
    /// range (each one is an unprotected read sequence — see
    /// [`crate::limitmod::RangeReg::Overlap`]).
    pub limit_rejected_ranges: u64,
    /// Futex (waits, wakes).
    pub futex: (u64, u64),
    /// Total cycles threads spent blocked on futexes.
    pub blocked_cycles: u64,
    /// Blocking I/O requests submitted.
    pub io_submits: u64,
    /// Total cycles threads spent blocked on I/O.
    pub io_wait_cycles: u64,
    /// Structured teardown warnings (mirrored to stderr by the harness).
    pub warnings: TeardownWarnings,
}

/// Conditions worth warning about at teardown, as data rather than only
/// stderr lines. The kernel fills the fields it owns (range rejections,
/// unfixed races); the harness fills the record-drop fields from guest
/// memory after the run, since only it knows the buffer layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TeardownWarnings {
    /// Instrumentation records dropped to full log/ring buffers.
    pub dropped_records: u64,
    /// The thread that dropped the most records, with its count.
    pub worst_dropper: Option<(ThreadId, u64)>,
    /// Region most represented in the worst dropper's landed records —
    /// the best available proxy for what was lost.
    pub busiest_region: Option<String>,
    /// Restart-range registrations rejected for overlap; the affected
    /// read sequences ran without the atomicity fix-up.
    pub rejected_ranges: u64,
    /// Torn reads observed while the restart fix-up was disabled.
    pub unfixed_races: u64,
}

impl TeardownWarnings {
    /// Whether any warning-worthy condition was observed.
    pub fn any(&self) -> bool {
        self.dropped_records > 0 || self.rejected_ranges > 0 || self.unfixed_races > 0
    }
}

/// Builds the hardware counter configuration for a LiMiT virtual counter.
///
/// With the self-virtualizing extension (hardware enhancement 2), the
/// counter spills directly into the user-memory accumulator on overflow —
/// no PMI, no kernel. Otherwise the kernel's PMI handler folds overflows.
/// A non-zero `tag` adds a tag filter (enhancement 3).
fn limit_counter_cfg(
    pmu_cfg: sim_cpu::PmuConfig,
    event: sim_cpu::EventKind,
    accum_addr: u64,
    tag: u64,
) -> CounterCfg {
    let mut cfg = if pmu_cfg.ext_self_virtualizing {
        CounterCfg::user(event).with_spill(accum_addr)
    } else {
        CounterCfg::user(event).with_pmi()
    };
    if tag != 0 && pmu_cfg.ext_tag_filter {
        cfg = cfg.with_tag(tag);
    }
    cfg
}

/// The simulated kernel, owning the machine and all thread state.
#[derive(Debug)]
pub struct Kernel {
    /// The hardware.
    pub machine: Machine,
    threads: Vec<Thread>,
    sched: Scheduler,
    futex: FutexTable,
    perf: PerfSubsystem,
    limit: LimitMod,
    io: IoSubsystem,
    cfg: KernelConfig,
    /// Guest debug log (`LogValue` syscall).
    log: Vec<u64>,
    closed_fds: Vec<PerfFd>,
    install_clock: Vec<u64>,
    pmis: u64,
    syscalls: u64,
    /// Disturbance injector for the torture harness (off by default).
    injector: Option<Injector>,
    /// Predecoded block map (LiMiT-range and local-run tables) for the
    /// fast path; rebuilt lazily after every restart-range registration
    /// and injector change.
    blocks: Option<sim_cpu::BlockMap>,
    /// Reusable per-core stop-threshold buffer for the fast path.
    fast_stop: Vec<u64>,
    /// Per-pc injection-arming table derived from the injector schedule:
    /// armed pcs are boundaries the fast path must not run across.
    armed_pcs: Option<Vec<bool>>,
}

impl Kernel {
    /// Boots a kernel on `machine`.
    pub fn new(machine: Machine, cfg: KernelConfig) -> Self {
        let cores = machine.num_cores();
        Kernel {
            sched: Scheduler::new(cores, cfg.quantum),
            futex: FutexTable::new(),
            perf: PerfSubsystem::new(),
            limit: LimitMod::new(cfg.restart_fixup),
            io: IoSubsystem::new(&cfg.io),
            threads: Vec::new(),
            log: Vec::new(),
            closed_fds: Vec::new(),
            install_clock: vec![0; cores],
            pmis: 0,
            syscalls: 0,
            injector: None,
            blocks: None,
            fast_stop: Vec::new(),
            armed_pcs: None,
            cfg,
            machine,
        }
    }

    /// Installs a disturbance-injection schedule (torture harness). Each
    /// trigger fires at most once, at the exact instruction boundary the
    /// kernel would otherwise have stepped the thread.
    pub fn set_injector(&mut self, schedule: &[Injection]) {
        self.injector = Some(Injector::new(schedule));
        let mut armed = vec![false; self.machine.prog.len()];
        for inj in schedule {
            if let Some(slot) = armed.get_mut(inj.pc as usize) {
                *slot = true;
            }
        }
        self.armed_pcs = Some(armed);
        // Armed pcs end local runs: rebuild the block map lazily.
        self.blocks = None;
    }

    /// The injector, if one is installed.
    pub fn injector(&self) -> Option<&Injector> {
        self.injector.as_ref()
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Records a flight event on `core`'s ring at the core's current
    /// clock, attributed to the installed thread. No-op when the flight
    /// recorder is off.
    fn flight_record(&mut self, core: CoreId, data: EventData) {
        let tid = self.machine.cores[core.index()].running.map(|t| t.0);
        self.flight_record_tid(core, tid, data);
    }

    /// [`Kernel::flight_record`] with explicit thread attribution — for
    /// sites where the thread is not (or no longer) installed.
    fn flight_record_tid(&mut self, core: CoreId, tid: Option<u32>, data: EventData) {
        let i = core.index();
        let clock = self.machine.cores[i].clock;
        if let Some(fl) = self.machine.flight_mut() {
            fl.record(i, clock, tid, data);
        }
    }

    /// Spawns a thread at the named program entry with `args` in `r0..`.
    pub fn spawn(&mut self, entry: &str, args: &[u64]) -> SimResult<ThreadId> {
        let pc = self.machine.prog.entry(entry)?;
        Ok(self.spawn_at(pc, args, None))
    }

    /// Spawns a thread pinned to `core`.
    pub fn spawn_pinned(&mut self, entry: &str, args: &[u64], core: CoreId) -> SimResult<ThreadId> {
        let pc = self.machine.prog.entry(entry)?;
        Ok(self.spawn_at(pc, args, Some(core)))
    }

    /// Spawns a thread at an absolute PC.
    pub fn spawn_at(&mut self, pc: u32, args: &[u64], affinity: Option<CoreId>) -> ThreadId {
        let tid = ThreadId::new(self.threads.len() as u32);
        let slots = self.machine.cores[0].pmu.config().programmable;
        let mut t = Thread::new(tid, pc, slots);
        for (i, &v) in args.iter().enumerate().take(6) {
            t.ctx.set(Reg::new(i as u8), v);
        }
        t.affinity = affinity;
        self.threads.push(t);
        self.sched
            .enqueue(self.threads.last().expect("just pushed"));
        tid
    }

    /// Immutable access to a thread.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.index()]
    }

    /// Sets a thread's scheduling priority (higher wins; default 0).
    pub fn set_priority(&mut self, tid: ThreadId, priority: u8) {
        self.threads[tid.index()].priority = priority;
        // The scheduler snapshots priority at enqueue; re-bucket if queued.
        self.sched.requeue(&self.threads[tid.index()]);
    }

    /// All threads.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// The guest debug log.
    pub fn log(&self) -> &[u64] {
        &self.log
    }

    /// The LiMiT extension state.
    pub fn limit(&self) -> &LimitMod {
        &self.limit
    }

    /// Registers the telemetry ring the kernel appends `tid`'s I/O wait
    /// records to. Called by stream-mode harnesses at spawn; without a
    /// registration the wait is still charged, just not ring-visible.
    pub fn set_io_ring(&mut self, tid: ThreadId, ring: IoRing) {
        self.threads[tid.index()].io_ring = Some(ring);
    }

    /// Registers a restartable read-sequence PC range host-side (the
    /// equivalent of the `LimitSetRestartRange` syscall, used by harnesses
    /// that know the ranges from the assembled program). Returns the
    /// registration outcome; [`RangeReg::Overlap`] means the sequence will
    /// run unprotected.
    pub fn register_restart_range(&mut self, start: u32, end: u32) -> RangeReg {
        let reg = self.limit.register_range(start, end);
        if reg == RangeReg::Registered {
            // The block map's in-range and local-run tables are stale;
            // rebuild lazily.
            self.blocks = None;
        }
        reg
    }

    /// All sampling hits recorded by live and closed perf fds.
    pub fn all_samples(&self) -> Vec<Sample> {
        let mut s = self.perf.all_samples();
        for fd in &self.closed_fds {
            s.extend(fd.samples.iter().copied());
        }
        s.sort_by_key(|x| x.cycle);
        s
    }

    /// Runs until every thread has exited. Returns the accounting report.
    pub fn run(&mut self) -> SimResult<RunReport> {
        self.run_inner(None, None)
    }

    /// Runs until `tid` exits (other threads may still be live). Useful
    /// for measuring a foreground application against open-ended
    /// background co-runners.
    pub fn run_until_exit(&mut self, tid: ThreadId) -> SimResult<RunReport> {
        self.run_inner(Some(tid), None)
    }

    /// Runs to completion, invoking `hook` at instruction boundaries every
    /// time the frontier clock advances `every` cycles past the previous
    /// firing. The hook gets the machine (guest memory access) and the
    /// current cycle — the mechanism a host-side telemetry collector uses
    /// to drain per-thread rings *mid-run* without perturbing guest state
    /// (it runs between guest instructions, like a DMA engine).
    pub fn run_with_hook<F>(&mut self, every: u64, mut hook: F) -> SimResult<RunReport>
    where
        F: FnMut(&mut Machine, u64) -> SimResult<()>,
    {
        assert!(every > 0, "hook period must be positive");
        self.run_inner(None, Some((every, &mut hook)))
    }

    /// [`Kernel::run_with_hook`], stopping when `tid` exits.
    pub fn run_until_exit_with_hook<F>(
        &mut self,
        tid: ThreadId,
        every: u64,
        mut hook: F,
    ) -> SimResult<RunReport>
    where
        F: FnMut(&mut Machine, u64) -> SimResult<()>,
    {
        assert!(every > 0, "hook period must be positive");
        self.run_inner(Some(tid), Some((every, &mut hook)))
    }

    #[allow(clippy::type_complexity)]
    fn run_inner(
        &mut self,
        stop_on_exit: Option<ThreadId>,
        mut hook: Option<(u64, &mut dyn FnMut(&mut Machine, u64) -> SimResult<()>)>,
    ) -> SimResult<RunReport> {
        let mut next_fire = hook.as_ref().map(|(every, _)| *every);
        // Block-stepped execution needs every per-instruction observer off:
        // the oracle and the flight recorder both hook individual steps in
        // ways batching would reorder.
        let fast = self.cfg.exec == ExecMode::Block
            && self.machine.oracle().is_none()
            && self.machine.flight().is_none();
        loop {
            if let Some(t) = stop_on_exit {
                if self.threads[t.index()].is_exited() {
                    break;
                }
            }
            self.schedule();
            let Some(core) = self.machine.next_busy_core() else {
                if !self.handle_all_idle()? {
                    break;
                }
                continue;
            };
            let now = self.machine.cores[core.index()].clock;
            if now > self.cfg.max_cycles {
                return Err(SimError::Timeout(format!(
                    "cycle budget {} exceeded at {now}",
                    self.cfg.max_cycles
                )));
            }
            if let Some((every, h)) = hook.as_mut() {
                if next_fire.is_some_and(|next| now >= next) {
                    h(&mut self.machine, now)?;
                    next_fire = Some(now + *every);
                }
            }

            if self.machine.cores[core.index()].pmu.pmi_pending() {
                self.handle_pmis(core)?;
                continue;
            }
            if self.machine.cores[core.index()].pmu.spill_journal() > 0 {
                self.consult_spill_journal(core);
                continue;
            }
            if self.sched.slice_expired(core, now) && self.sched.ready_len() > 0 {
                self.preempt(core)?;
                continue;
            }
            // Torture-harness injection: fires at the same instruction
            // boundary organic preemptions and PMIs land on.
            if self.injector.is_some() {
                if let Some(action) = self.poll_injection(core) {
                    self.apply_injection(core, action)?;
                    continue;
                }
            }

            let (core, step) = if fast && !self.injection_armed_at(core) {
                match self.fast_run(next_fire)? {
                    Some((c, s)) => (c, s),
                    // The machine stopped at a poll point without trapping:
                    // re-run the kernel's full decision sequence.
                    None => continue,
                }
            } else {
                // An armed injection pc the poll above chose not to fire
                // on must execute as exactly one legacy step, otherwise
                // the fast path would stop at it forever.
                (core, self.machine.step(core)?)
            };
            match step.trap {
                None => {}
                Some(Trap::Syscall(nr)) => self.do_syscall(core, nr)?,
                Some(Trap::Halt) => self.exit_thread(core)?,
                Some(Trap::Fault(msg)) => {
                    let tid = self.machine.cores[core.index()].running;
                    let pc = self.machine.cores[core.index()].ctx.pc;
                    // The flight recorder and telemetry survive the fault:
                    // record it, and let callers export what was captured.
                    self.flight_record(core, EventData::Fault { pc });
                    return Err(SimError::Fault(format!(
                        "thread {tid:?} faulted at pc {pc}: {msg}"
                    )));
                }
            }
        }

        Ok(RunReport {
            total_cycles: self.machine.global_clock(),
            context_switches: self.sched.switches,
            preemptions: self.sched.preemptions,
            migrations: self.sched.migrations,
            pmis: self.pmis,
            limit_folds: self.limit.folds,
            limit_fixups: self.limit.fixups,
            limit_unfixed_races: self.limit.unfixed_races,
            syscalls: self.syscalls,
            limit_rejected_ranges: self.limit.rejected_ranges,
            futex: self.futex.stats(),
            blocked_cycles: self.threads.iter().map(|t| t.stats.blocked_cycles).sum(),
            io_submits: self.io.total_submits(),
            io_wait_cycles: self.io.total_wait_cycles(),
            warnings: TeardownWarnings {
                rejected_ranges: self.limit.rejected_ranges,
                unfixed_races: self.limit.unfixed_races,
                ..TeardownWarnings::default()
            },
        })
    }

    /// Whether an injection trigger is armed at the pc `core` is about to
    /// execute (regardless of thread — arming is conservative).
    fn injection_armed_at(&self, core: CoreId) -> bool {
        let Some(armed) = self.armed_pcs.as_deref() else {
            return false;
        };
        let pc = self.machine.cores[core.index()].ctx.pc;
        armed.get(pc as usize).copied().unwrap_or(false)
    }

    /// One block-stepped machine run: derives the poll-point thresholds
    /// from current kernel state (the kernel telling the machine how far it
    /// may run), lets the machine execute until a kernel-visible event, and
    /// translates the exit. `None` means "nothing to dispatch — re-run the
    /// kernel's poll sequence"; `Some` carries a trap.
    fn fast_run(&mut self, next_fire: Option<u64>) -> SimResult<Option<(CoreId, sim_cpu::Step)>> {
        let blocks = self.blocks.get_or_insert_with(|| {
            sim_cpu::BlockMap::build(
                &self.machine.prog,
                self.limit.ranges(),
                self.armed_pcs.as_deref(),
                self.machine.cost(),
            )
        });
        // A core must stop before the hook's next fire time, before its
        // slice expires (only enforceable while someone is waiting), and
        // before the cycle budget check would trip.
        let ready = self.sched.ready_len() > 0;
        self.fast_stop.clear();
        for i in 0..self.machine.num_cores() {
            let mut stop = self.cfg.max_cycles.saturating_add(1);
            if let Some(nf) = next_fire {
                stop = stop.min(nf);
            }
            if ready {
                stop = stop.min(self.sched.slice_end(CoreId::new(i as u32)));
            }
            self.fast_stop.push(stop);
        }
        let wake_at = self
            .threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Sleeping { until } => Some(until),
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX);
        let limits = sim_cpu::RunLimits {
            stop_at: &self.fast_stop,
            wake_at,
            armed_pcs: self.armed_pcs.as_deref(),
            in_limit: blocks.in_limit(),
        };
        match self.machine.run_until_with(&limits, blocks.runs())? {
            sim_cpu::RunExit::Trap(core, step) => Ok(Some((core, step))),
            _ => Ok(None),
        }
    }

    /// Consults the core's hardware spill journal (the paper's enhancement
    /// 2 made kernel-visible): a self-virtualizing spill moves live counts
    /// into the user accumulator with no interrupt, so a spill that lands
    /// mid-read-sequence needs the same restart fix-up a fold does. The
    /// journal closes exactly that gap — without it, mid-sequence spills
    /// are invisible to the kernel and the read sequence can observe a
    /// torn sum (the 145/1k residual the torture harness pinned in E14).
    fn consult_spill_journal(&mut self, core: CoreId) {
        let i = core.index();
        if self.machine.cores[i].pmu.take_spill_journal() == 0 {
            return;
        }
        let Some(tid) = self.machine.cores[i].running else {
            return;
        };
        let pc = self.machine.cores[i].ctx.pc;
        let fixed = self.limit.fixup_pc(pc);
        if fixed != pc {
            self.machine.cores[i].ctx.pc = fixed;
            // The accumulator changed under the reader; the seqlock
            // protocol must see the disturbance too.
            self.bump_seq(tid);
        }
    }

    /// Wakes due sleepers and installs ready threads on idle cores.
    fn schedule(&mut self) {
        let now = self.machine.global_clock();
        for t in &mut self.threads {
            if let ThreadState::Sleeping { until } = t.state {
                if until <= now {
                    t.state = ThreadState::Ready;
                    t.ready_at = until;
                    self.sched.enqueue(t);
                }
            }
        }
        for i in 0..self.machine.num_cores() {
            let core = CoreId::new(i as u32);
            if self.machine.cores[i].running.is_none() {
                if let Some(tid) = self.sched.pick(core) {
                    self.flight_record_tid(core, Some(tid.0), EventData::SchedPick);
                    self.switch_in(core, tid);
                }
            }
        }
    }

    /// Handles the no-busy-core state: advances time to the next sleeper
    /// wake-up, or detects termination/deadlock. Returns `false` when all
    /// threads have exited.
    fn handle_all_idle(&mut self) -> SimResult<bool> {
        if self.sched.ready_len() > 0 {
            // Ready threads exist but pick() skipped them — impossible when
            // all cores are idle unless affinity points at a missing core.
            return Err(SimError::Harness(
                "ready threads unschedulable on any core".into(),
            ));
        }
        let next_wake = self
            .threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Sleeping { until } => Some(until),
                _ => None,
            })
            .min();
        if let Some(until) = next_wake {
            for c in &mut self.machine.cores {
                c.clock = c.clock.max(until);
            }
            for t in &mut self.threads {
                if matches!(t.state, ThreadState::Sleeping { until: u } if u <= until) {
                    t.state = ThreadState::Ready;
                    t.ready_at = until;
                    self.sched.enqueue(t);
                }
            }
            return Ok(true);
        }
        let blocked: Vec<_> = self
            .threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::Blocked { .. }))
            .map(|t| t.tid)
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Harness(format!(
                "deadlock: threads {blocked:?} blocked on futexes with no runnable waker"
            )));
        }
        Ok(false)
    }

    /// Installs `tid` on `core`.
    fn switch_in(&mut self, core: CoreId, tid: ThreadId) {
        let i = core.index();
        let t = &mut self.threads[tid.index()];

        // An idle core's clock may lag; it cannot run the thread before the
        // moment the thread became ready.
        let clock = self.machine.cores[i].clock.max(t.ready_at);
        self.machine.cores[i].clock = clock;

        let mut migrated_from = None;
        if let Some(last) = t.last_core {
            if last != core {
                t.stats.migrations += 1;
                self.sched.note_migration();
                migrated_from = Some(last);
            }
        }

        // Program the PMU for this thread's virtualized counters.
        {
            let pmu = &mut self.machine.cores[i].pmu;
            let modulus = pmu.modulus();
            for (slot, vc) in t.vcounters.iter().enumerate() {
                let slot = slot as u8;
                match vc {
                    None => {
                        let _ = pmu.disable(slot);
                    }
                    Some(VCounter::Limit {
                        event,
                        accum_addr,
                        tag,
                    }) => {
                        pmu.configure(
                            slot,
                            limit_counter_cfg(pmu.config(), *event, *accum_addr, *tag),
                        )
                        .expect("validated at limit_open");
                    }
                    Some(VCounter::PerfCount { fd }) => {
                        let f = self.perf.get(*fd).expect("fd validated at open");
                        if f.enabled {
                            pmu.configure(slot, CounterCfg::user(f.event).with_pmi())
                                .expect("validated at perf_open");
                        } else {
                            let _ = pmu.disable(slot);
                        }
                    }
                    Some(VCounter::PerfSample { fd, saved_raw }) => {
                        let f = self.perf.get(*fd).expect("fd validated at open");
                        if f.enabled {
                            let period = f.sampling_period.unwrap_or(modulus).min(modulus);
                            pmu.configure(
                                slot,
                                CounterCfg::user(f.event)
                                    .with_pmi()
                                    .with_reload(modulus - period),
                            )
                            .expect("validated at perf_open");
                            pmu.write(slot, *saved_raw % modulus)
                                .expect("slot just configured");
                        } else {
                            let _ = pmu.disable(slot);
                        }
                    }
                }
            }
            pmu.set_user_rdpmc(t.uses_limit);
        }

        self.machine.cores[i].ctx = t.ctx.clone();
        self.machine.cores[i].running = Some(tid);
        t.state = ThreadState::Running(core);
        t.last_core = Some(core);
        t.stats.switches += 1;
        self.install_clock[i] = self.machine.cores[i].clock;

        // Half the context-switch cost is paid on the way in, in kernel
        // mode (invisible to user-only counters, visible to wall clock).
        self.machine.cores[i].mode = Mode::Kernel;
        self.machine.charge(core, self.cfg.ctx_switch_cost / 2, 150);
        self.machine.cores[i].mode = Mode::User;

        self.sched.start_slice(core, self.machine.cores[i].clock);

        if let Some(from) = migrated_from {
            self.flight_record_tid(
                core,
                Some(tid.0),
                EventData::Migration {
                    from: from.0,
                    to: core.0,
                },
            );
        }
        self.flight_record_tid(core, Some(tid.0), EventData::SwitchIn);

        // An I/O-blocked thread resumes here: account the completed wait.
        if let Some(pending) = self.threads[tid.index()].io_pending.take() {
            self.complete_io(core, tid, pending);
        }
    }

    /// Wake-side half of a blocking I/O request, run when the thread is
    /// switched back in: charges the wait into the thread's virtualized
    /// cycle counter (so the enclosing instrumented region *sees* the
    /// blocked time — and per-region I/O-wait sums can never exceed
    /// per-region cycle sums), appends a device-tagged record to the
    /// thread's telemetry ring, and emits the `io_wake` flight event that
    /// closes the `io_block` span.
    fn complete_io(&mut self, core: CoreId, tid: ThreadId, pending: PendingIo) {
        let i = core.index();
        let wait = pending.complete - pending.submitted;
        let t = &mut self.threads[tid.index()];
        t.stats.io_waits += 1;
        t.stats.io_wait_cycles += wait;

        let cycles_accum = t.vcounters.iter().find_map(|vc| match vc {
            Some(VCounter::Limit {
                event: sim_cpu::EventKind::Cycles,
                accum_addr,
                ..
            }) => Some(*accum_addr),
            _ => None,
        });
        if let Some(addr) = cycles_accum {
            self.machine
                .mem
                .fetch_add_u64(addr, wait)
                .expect("aligned at limit_open");
            self.limit.folds += 1;
            // Same epilogue as any other fold: the accumulator changed
            // under a potential reader, so rewind mid-sequence PCs and
            // bump the seqlock word.
            let pc = self.machine.cores[i].ctx.pc;
            self.machine.cores[i].ctx.pc = self.limit.fixup_pc(pc);
            self.bump_seq(tid);
        }

        self.append_io_record(tid, &pending, wait);
        self.flight_record_tid(
            core,
            Some(tid.0),
            EventData::IoWake {
                device: DEVICE_NAMES[pending.device],
            },
        );
    }

    /// Appends one device-tagged wait record to `tid`'s telemetry ring,
    /// mirroring the guest producer protocol exactly (head/tail/dropped
    /// words, drop-newest vs overwrite-oldest policy), so the host-side
    /// collector drains kernel records and guest records uniformly.
    fn append_io_record(&mut self, tid: ThreadId, pending: &PendingIo, wait: u64) {
        let Some(ring) = self.threads[tid.index()].io_ring else {
            return;
        };
        if ring.counters == 0 {
            return;
        }
        let mem = &mut self.machine.mem;
        let (Ok(head), Ok(tail)) = (mem.read_u64(ring.head_addr), mem.read_u64(ring.tail_addr))
        else {
            return;
        };
        if head.wrapping_sub(tail) >= ring.capacity && !ring.overwrite {
            let _ = mem.fetch_add_u64(ring.dropped_addr, 1);
            return;
        }
        let slot_size = (8 * (1 + ring.counters) as u64).next_power_of_two();
        let addr = ring.base + (head & (ring.capacity - 1)) * slot_size;
        let word = crate::io::encode_io_region(pending.region, pending.device);
        let ok = mem.write_u64(addr, word).is_ok()
            && mem.write_u64(addr + 8, wait).is_ok()
            && (2..=ring.counters).all(|c| mem.write_u64(addr + 8 * c as u64, 0).is_ok());
        if ok {
            let _ = mem.write_u64(ring.head_addr, head + 1);
        }
    }

    /// Removes the running thread from `core`, folding counters and
    /// applying the restart fix-up, leaving the thread in `next_state`.
    fn switch_out(&mut self, core: CoreId, next_state: ThreadState) -> SimResult<ThreadId> {
        // Deliver pending overflows to the right thread first.
        self.handle_pmis(core)?;

        let i = core.index();
        let tid = self.machine.cores[i]
            .running
            .ok_or_else(|| SimError::Harness(format!("switch_out on idle {core}")))?;

        self.machine.cores[i].mode = Mode::Kernel;
        self.machine.charge(core, self.cfg.ctx_switch_cost / 2, 150);

        let t = &mut self.threads[tid.index()];
        let mut had_limit = false;
        let mut folded = false;
        {
            let sim_cpu::Machine { cores, mem, .. } = &mut self.machine;
            let pmu = &mut cores[i].pmu;
            for (slot, vc) in t.vcounters.iter_mut().enumerate() {
                let slot = slot as u8;
                match vc {
                    None => {}
                    Some(VCounter::Limit { accum_addr, .. }) => {
                        had_limit = true;
                        let raw = pmu.read_clear(slot).expect("slot in range");
                        if raw > 0 {
                            mem.fetch_add_u64(*accum_addr, raw)
                                .expect("aligned at limit_open");
                            self.limit.folds += 1;
                            folded = true;
                        }
                    }
                    Some(VCounter::PerfCount { fd }) => {
                        let raw = pmu.read_clear(slot).expect("slot in range");
                        if let Ok(f) = self.perf.get_mut(*fd) {
                            f.accum += raw;
                        }
                    }
                    Some(VCounter::PerfSample { saved_raw, .. }) => {
                        *saved_raw = pmu.read_clear(slot).expect("slot in range");
                    }
                }
                let _ = pmu.disable(slot);
            }
            pmu.set_user_rdpmc(false);
            // The switch-out fix-up below supersedes any pending spill-
            // journal consult; drop the journal so it cannot be applied to
            // the next thread installed on this core.
            let _ = pmu.take_spill_journal();
        }

        // The fold may have landed mid-read-sequence: rewind the saved PC
        // (LiMiT protocol) and bump the fold-sequence word (seqlock
        // protocol readers detect the disturbance themselves).
        if had_limit {
            self.machine.cores[i].ctx.pc = self.limit.fixup_pc(self.machine.cores[i].ctx.pc);
        }
        if folded {
            self.bump_seq(tid);
        }

        let state_name = match next_state {
            ThreadState::Ready => "ready",
            ThreadState::Running(_) => "running",
            ThreadState::Blocked { .. } => "blocked",
            ThreadState::Sleeping { .. } => "sleeping",
            ThreadState::Exited => "exited",
        };
        let t = &mut self.threads[tid.index()];
        t.ctx = self.machine.cores[i].ctx.clone();
        t.state = next_state;
        t.stats.run_cycles += self.machine.cores[i]
            .clock
            .saturating_sub(self.install_clock[i]);
        self.machine.cores[i].running = None;
        self.machine.cores[i].mode = Mode::Kernel;
        self.flight_record_tid(
            core,
            Some(tid.0),
            EventData::SwitchOut { state: state_name },
        );
        Ok(tid)
    }

    /// Asks the injector whether a disturbance is scheduled for the
    /// instruction `core` is about to execute.
    fn poll_injection(&mut self, core: CoreId) -> Option<InjectAction> {
        let c = &self.machine.cores[core.index()];
        let tid = c.running?;
        let pc = c.ctx.pc;
        self.injector.as_mut()?.poll(tid, pc)
    }

    /// Forces one injected disturbance on `core`, reusing the organic
    /// kernel paths so the virtualization layer sees exactly what a real
    /// preemption / overflow / migration / spill would do to it.
    fn apply_injection(&mut self, core: CoreId, action: InjectAction) -> SimResult<()> {
        let i = core.index();
        let pc = self.machine.cores[i].ctx.pc;
        self.flight_record(
            core,
            EventData::Injection {
                pc,
                action: action.name(),
            },
        );
        match action {
            InjectAction::Preempt => {
                self.preempt(core)?;
            }
            InjectAction::Pmi => {
                // Spurious *early* overflow: fold each live LiMiT counter's
                // raw value (not the wrap modulus — the counter has not
                // actually wrapped, so folding the modulus would corrupt
                // counts) through the normal PMI epilogue: fix-up + seq.
                let Some(tid) = self.machine.cores[i].running else {
                    return Ok(());
                };
                self.pmis += 1;
                let prev_mode = self.machine.cores[i].mode;
                self.machine.cores[i].mode = Mode::Kernel;
                self.machine.charge(core, self.cfg.pmi_cost, 400);
                self.machine.cores[i].mode = prev_mode;

                let t = &self.threads[tid.index()];
                let mut had_limit = false;
                let mut folded = false;
                {
                    let sim_cpu::Machine { cores, mem, .. } = &mut self.machine;
                    let pmu = &mut cores[i].pmu;
                    for (slot, vc) in t.vcounters.iter().enumerate() {
                        if let Some(VCounter::Limit { accum_addr, .. }) = vc {
                            had_limit = true;
                            let raw = pmu.read_clear(slot as u8).expect("slot in range");
                            if raw > 0 {
                                mem.fetch_add_u64(*accum_addr, raw)
                                    .expect("aligned at limit_open");
                                self.limit.folds += 1;
                                folded = true;
                            }
                        }
                    }
                }
                if had_limit {
                    let pc = self.machine.cores[i].ctx.pc;
                    self.machine.cores[i].ctx.pc = self.limit.fixup_pc(pc);
                }
                if folded {
                    self.bump_seq(tid);
                }
            }
            InjectAction::Migrate => {
                let now = self.machine.cores[i].clock;
                let tid = self.switch_out(core, ThreadState::Ready)?;
                self.threads[tid.index()].ready_at = now;
                self.sched.note_preemption();
                let ncores = self.machine.num_cores();
                let target = CoreId::new(((i + 1) % ncores) as u32);
                let pinned_elsewhere = self.threads[tid.index()]
                    .affinity
                    .is_some_and(|a| a != target);
                if target == core || pinned_elsewhere {
                    // Nowhere legal to move it: degrade to a preemption.
                    self.sched.enqueue(&self.threads[tid.index()]);
                } else {
                    if self.machine.cores[target.index()].running.is_some() {
                        let victim = self.switch_out(target, ThreadState::Ready)?;
                        let vnow = self.machine.cores[target.index()].clock;
                        self.threads[victim.index()].ready_at = vnow;
                        self.sched.enqueue(&self.threads[victim.index()]);
                        self.sched.note_preemption();
                    }
                    self.switch_in(target, tid);
                }
            }
            InjectAction::Spill => {
                // Self-virtualizing hardware spill forced mid-stream: the
                // live raw value moves to the accumulator with no
                // synchronous kernel involvement — no fold accounting. The
                // hardware journals the spill (enhancement 2), and the
                // kernel consults the journal at the next instruction
                // boundary, applying the restart fix-up if the spill landed
                // mid-read-sequence.
                let Some(tid) = self.machine.cores[i].running else {
                    return Ok(());
                };
                let t = &self.threads[tid.index()];
                let spill_cost = self.machine.cost().spill;
                let sim_cpu::Machine { cores, mem, .. } = &mut self.machine;
                let mut spilled = 0u64;
                for (slot, vc) in t.vcounters.iter().enumerate() {
                    if let Some(VCounter::Limit { accum_addr, .. }) = vc {
                        let raw = cores[i].pmu.read_clear(slot as u8).expect("slot in range");
                        if raw > 0 {
                            mem.fetch_add_u64(*accum_addr, raw)
                                .expect("aligned at limit_open");
                        }
                        spilled += 1;
                    }
                }
                cores[i].clock += spilled * spill_cost;
                if spilled > 0 {
                    cores[i].pmu.journal_spills(spilled);
                }
            }
        }
        Ok(())
    }

    /// Quantum expiry: requeue the running thread.
    fn preempt(&mut self, core: CoreId) -> SimResult<()> {
        let now = self.machine.cores[core.index()].clock;
        let tid = self.switch_out(core, ThreadState::Ready)?;
        self.threads[tid.index()].ready_at = now;
        self.sched.enqueue(&self.threads[tid.index()]);
        self.sched.note_preemption();
        Ok(())
    }

    /// Thread termination (Halt or `Exit` syscall).
    fn exit_thread(&mut self, core: CoreId) -> SimResult<()> {
        let tid = self.switch_out(core, ThreadState::Exited)?;
        let t = &mut self.threads[tid.index()];
        t.stats.exited_at = self.machine.cores[core.index()].clock;
        // Close any still-open perf fds so their accumulators survive in
        // the graveyard for post-run analysis.
        for slot in 0..t.vcounters.len() {
            if let Some(VCounter::PerfCount { fd } | VCounter::PerfSample { fd, .. }) =
                t.vcounters[slot]
            {
                t.vcounters[slot] = None;
                if let Ok(f) = self.perf.close(fd) {
                    self.closed_fds.push(f);
                }
            }
        }
        Ok(())
    }

    /// Increments a thread's fold-sequence word, if registered.
    fn bump_seq(&mut self, tid: ThreadId) {
        if let Some(addr) = self.threads[tid.index()].seq_addr {
            self.machine
                .mem
                .fetch_add_u64(addr, 1)
                .expect("aligned at registration");
        }
    }

    /// Delivers all pending overflow interrupts on `core`.
    fn handle_pmis(&mut self, core: CoreId) -> SimResult<()> {
        let i = core.index();
        loop {
            let Some(slot) = self.machine.cores[i].pmu.take_pmi() else {
                return Ok(());
            };
            self.pmis += 1;
            let prev_mode = self.machine.cores[i].mode;
            self.machine.cores[i].mode = Mode::Kernel;
            self.machine.charge(core, self.cfg.pmi_cost, 400);
            self.machine.cores[i].mode = prev_mode;
            self.flight_record(core, EventData::Pmi { slot });

            let Some(tid) = self.machine.cores[i].running else {
                continue; // spurious: thread already gone
            };
            let modulus = self.machine.cores[i].pmu.modulus();
            let vc = self.threads[tid.index()].vcounters[slot as usize];
            match vc {
                None => {}
                Some(VCounter::Limit { accum_addr, .. }) => {
                    self.machine
                        .mem
                        .fetch_add_u64(accum_addr, modulus)
                        .expect("aligned at limit_open");
                    self.limit.folds += 1;
                    let pc = self.machine.cores[i].ctx.pc;
                    self.machine.cores[i].ctx.pc = self.limit.fixup_pc(pc);
                    self.bump_seq(tid);
                }
                Some(VCounter::PerfCount { fd }) => {
                    if let Ok(f) = self.perf.get_mut(fd) {
                        f.accum += modulus;
                    }
                }
                Some(VCounter::PerfSample { fd, .. }) => {
                    // Re-arm is automatic (hardware reload); the handler
                    // only records the hit.
                    let pc = self.machine.cores[i].ctx.pc;
                    let cycle = self.machine.cores[i].clock;
                    if let Ok(f) = self.perf.get_mut(fd) {
                        f.samples.push(Sample {
                            tid,
                            pc,
                            core,
                            cycle,
                        });
                    }
                }
            }
        }
    }

    /// Full syscall path: entry cost, dispatch, exit cost.
    fn do_syscall(&mut self, core: CoreId, nr: u64) -> SimResult<()> {
        self.syscalls += 1;
        let i = core.index();
        let tid = self.machine.cores[i]
            .running
            .ok_or_else(|| SimError::Harness("syscall from idle core".into()))?;
        self.threads[tid.index()].stats.syscalls += 1;

        self.machine.cores[i].mode = Mode::Kernel;
        let entry_cost = self.machine.cost().syscall_entry;
        self.machine.charge(core, entry_cost, 60);

        let call = Sys::decode(nr, &self.machine.cores[i].ctx);
        let sys_name = call.as_ref().map_or("invalid", Sys::name);
        self.flight_record_tid(
            core,
            Some(tid.0),
            EventData::SyscallEnter { name: sys_name },
        );
        match call {
            None => self.machine.cores[i].ctx.set(Reg::R0, SYS_ERR),
            Some(sys) => self.dispatch(core, tid, sys)?,
        }

        // If the thread is still installed, pay the return-to-user cost.
        if self.machine.cores[i].running == Some(tid) {
            let exit_cost = self.machine.cost().syscall_exit;
            self.machine.charge(core, exit_cost, 60);
            self.machine.cores[i].mode = Mode::User;
        }
        // Emitted even when the caller blocked or exited mid-syscall, so
        // per-thread enter/exit stays balanced in the trace.
        self.flight_record_tid(core, Some(tid.0), EventData::SyscallExit { name: sys_name });
        Ok(())
    }

    fn dispatch(&mut self, core: CoreId, tid: ThreadId, sys: Sys) -> SimResult<()> {
        let i = core.index();
        let set_r0 = |k: &mut Kernel, v: u64| k.machine.cores[i].ctx.set(Reg::R0, v);
        match sys {
            Sys::Exit => {
                self.exit_thread(core)?;
            }
            Sys::Yield => {
                set_r0(self, 0);
                let now = self.machine.cores[i].clock;
                let t = self.switch_out(core, ThreadState::Ready)?;
                self.threads[t.index()].ready_at = now;
                self.sched.enqueue(&self.threads[t.index()]);
            }
            Sys::Nanosleep { cycles } => {
                set_r0(self, 0);
                let until = self.machine.cores[i].clock + cycles;
                self.switch_out(core, ThreadState::Sleeping { until })?;
            }
            Sys::FutexWait { addr, expected } => match self.machine.mem.read_u64(addr) {
                Err(_) => set_r0(self, SYS_ERR),
                Ok(v) if v != expected => set_r0(self, 1),
                Ok(_) => {
                    set_r0(self, 0);
                    self.futex.wait(addr, tid);
                    self.switch_out(core, ThreadState::Blocked { futex_addr: addr })?;
                    self.threads[tid.index()].blocked_at = self.machine.cores[i].clock;
                }
            },
            Sys::FutexWake { addr, count } => {
                let now = self.machine.cores[i].clock;
                let woken = self.futex.wake(addr, count);
                let n = woken.len() as u64;
                for w in woken {
                    let t = &mut self.threads[w.index()];
                    t.state = ThreadState::Ready;
                    t.ready_at = now;
                    t.stats.blocked_cycles += now.saturating_sub(t.blocked_at);
                    self.sched.enqueue(t);
                }
                set_r0(self, n);
            }
            Sys::Gettid => set_r0(self, tid.0 as u64),
            Sys::PerfOpen { event, period } => {
                let r = self.perf_open(core, tid, event, period);
                set_r0(self, r);
            }
            Sys::PerfRead { fd } => {
                self.machine.charge(core, self.cfg.perf_read_work, 800);
                let r = self.perf_read(core, tid, fd as u32);
                set_r0(self, r);
            }
            Sys::PerfEnable { fd } => {
                let r = self.perf_set_enabled(core, tid, fd as u32, true);
                set_r0(self, r);
            }
            Sys::PerfDisable { fd } => {
                let r = self.perf_set_enabled(core, tid, fd as u32, false);
                set_r0(self, r);
            }
            Sys::PerfClose { fd } => {
                let r = self.perf_close(core, tid, fd as u32);
                set_r0(self, r);
            }
            Sys::LimitOpen {
                slot,
                event,
                accum_addr,
                tag,
            } => {
                let r = self.limit_open(core, tid, slot, event, accum_addr, tag);
                set_r0(self, r);
            }
            Sys::LimitClose { slot } => {
                let r = self.limit_close(core, tid, slot);
                set_r0(self, r);
            }
            Sys::LimitSetRestartRange { start, end } => {
                let ok = start < end
                    && end <= self.machine.prog.len() as u64
                    && matches!(
                        self.register_restart_range(start as u32, end as u32),
                        RangeReg::Registered | RangeReg::Duplicate
                    );
                set_r0(self, if ok { 0 } else { SYS_ERR });
                self.flight_record_tid(
                    core,
                    Some(tid.0),
                    EventData::RangeRegistered {
                        start: start as u32,
                        end: end as u32,
                        ok,
                    },
                );
            }
            Sys::LogValue { value } => {
                self.log.push(value);
                set_r0(self, 0);
            }
            Sys::Spawn { entry, arg0, arg1 } => {
                if entry >= self.machine.prog.len() as u64 {
                    set_r0(self, SYS_ERR);
                } else {
                    self.machine.charge(core, 5_000, 1_500); // clone() cost
                    let child = self.spawn_at(entry as u32, &[arg0, arg1], None);
                    set_r0(self, child.0 as u64);
                }
            }
            Sys::IoSubmit { device, region } => {
                if device as usize >= DEVICES {
                    set_r0(self, SYS_ERR);
                } else {
                    let d = device as usize;
                    // Kernel I/O submission path: request setup + enqueue.
                    self.machine.charge(core, 1_000, 200);
                    let now = self.machine.cores[i].clock;
                    let ticket = self.io.submit(d, now);
                    self.flight_record_tid(
                        core,
                        Some(tid.0),
                        EventData::IoEnqueue {
                            device: DEVICE_NAMES[d],
                            start: ticket.start,
                            complete: ticket.complete,
                            depth: ticket.depth as u32,
                        },
                    );
                    self.flight_record_tid(
                        core,
                        Some(tid.0),
                        EventData::IoBlock {
                            device: DEVICE_NAMES[d],
                        },
                    );
                    set_r0(self, ticket.complete - now);
                    self.threads[tid.index()].io_pending = Some(PendingIo {
                        device: d,
                        submitted: now,
                        start: ticket.start,
                        complete: ticket.complete,
                        region,
                    });
                    // An I/O-blocked thread is an ordinary sleeper: both
                    // execution modes already wake sleepers identically, so
                    // blocking I/O inherits their determinism for free.
                    self.switch_out(
                        core,
                        ThreadState::Sleeping {
                            until: ticket.complete,
                        },
                    )?;
                }
            }
            Sys::LimitSetSeq { addr } => {
                if addr == 0 {
                    self.threads[tid.index()].seq_addr = None;
                    set_r0(self, 0);
                } else if addr % 8 == 0 {
                    self.threads[tid.index()].seq_addr = Some(addr);
                    set_r0(self, 0);
                } else {
                    set_r0(self, SYS_ERR);
                }
            }
        }
        Ok(())
    }

    fn perf_open(&mut self, core: CoreId, tid: ThreadId, event: u64, period: u64) -> u64 {
        self.machine.charge(core, self.cfg.perf_open_work, 4_000);
        let Some(event) = decode_event(event) else {
            return SYS_ERR;
        };
        let i = core.index();
        let modulus = self.machine.cores[i].pmu.modulus();
        if period >= modulus {
            return SYS_ERR;
        }
        let Some(slot) = self.threads[tid.index()].free_slot() else {
            return SYS_ERR;
        };
        let sampling = period > 0;
        let fd = self.perf.open(PerfFd {
            owner: tid,
            event,
            enabled: true,
            sampling_period: sampling.then_some(period),
            accum: 0,
            samples: Vec::new(),
            vslot: slot,
        });
        self.threads[tid.index()].vcounters[slot as usize] = Some(if sampling {
            VCounter::PerfSample {
                fd,
                saved_raw: modulus - period,
            }
        } else {
            VCounter::PerfCount { fd }
        });
        // The caller is running: program the hardware now.
        let pmu = &mut self.machine.cores[i].pmu;
        let mut cfg = CounterCfg::user(event).with_pmi();
        if sampling {
            cfg = cfg.with_reload(modulus - period);
        }
        pmu.configure(slot, cfg).expect("free slot validated");
        if sampling {
            pmu.write(slot, modulus - period).expect("slot configured");
        }
        if let Some(o) = self.machine.oracle_mut() {
            o.note_perf_open(tid, fd, event);
        }
        fd as u64
    }

    fn perf_read(&mut self, core: CoreId, tid: ThreadId, fd: u32) -> u64 {
        let i = core.index();
        let Ok(f) = self.perf.get(fd) else {
            return SYS_ERR;
        };
        if f.owner != tid {
            return SYS_ERR;
        }
        if f.sampling_period.is_some() {
            return f.samples.len() as u64;
        }
        let live = self.machine.cores[i]
            .pmu
            .read(f.vslot)
            .expect("owner is running here");
        let value = f.accum + live;
        // Bounded-error oracle tap: the syscall path has no restart range,
        // so the check records measured error instead of pass/fail.
        if let Some(o) = self.machine.oracle_mut() {
            o.check_perf_read(tid, fd, value);
        }
        value
    }

    fn perf_set_enabled(&mut self, core: CoreId, tid: ThreadId, fd: u32, enabled: bool) -> u64 {
        let i = core.index();
        let modulus = self.machine.cores[i].pmu.modulus();
        let Ok(f) = self.perf.get_mut(fd) else {
            return SYS_ERR;
        };
        if f.owner != tid || f.enabled == enabled {
            if f.owner != tid {
                return SYS_ERR;
            }
            return 0;
        }
        f.enabled = enabled;
        let slot = f.vslot;
        let event = f.event;
        let sampling = f.sampling_period;
        let pmu = &mut self.machine.cores[i].pmu;
        if enabled {
            let mut cfg = CounterCfg::user(event).with_pmi();
            if let Some(p) = sampling {
                cfg = cfg.with_reload(modulus - p.min(modulus));
            }
            pmu.configure(slot, cfg).expect("slot reserved for this fd");
            if let Some(p) = sampling {
                pmu.write(slot, modulus - p).expect("slot configured");
            }
        } else {
            let raw = pmu.read_clear(slot).expect("slot reserved");
            let _ = pmu.disable(slot);
            match self.threads[tid.index()].vcounters[slot as usize] {
                Some(VCounter::PerfSample { .. }) => {
                    if let Some(VCounter::PerfSample { saved_raw, .. }) =
                        &mut self.threads[tid.index()].vcounters[slot as usize]
                    {
                        *saved_raw = raw;
                    }
                }
                _ => {
                    self.perf.get_mut(fd).expect("checked above").accum += raw;
                }
            }
        }
        0
    }

    fn perf_close(&mut self, core: CoreId, tid: ThreadId, fd: u32) -> u64 {
        if self.perf_set_enabled(core, tid, fd, false) == SYS_ERR {
            return SYS_ERR;
        }
        let f = self.perf.close(fd).expect("validated by set_enabled");
        self.threads[tid.index()].vcounters[f.vslot as usize] = None;
        self.closed_fds.push(f);
        0
    }

    fn limit_open(
        &mut self,
        core: CoreId,
        tid: ThreadId,
        slot: u64,
        event: u64,
        accum_addr: u64,
        tag: u64,
    ) -> u64 {
        let i = core.index();
        let Some(event) = decode_event(event) else {
            return SYS_ERR;
        };
        let pmu_cfg = self.machine.cores[i].pmu.config();
        // The hardware, not the virtual-counter table, bounds the slot
        // space: a slot the PMU does not have must fail here, not alias.
        let Some(slot) = validate_limit_slot(slot, pmu_cfg.programmable) else {
            return SYS_ERR;
        };
        let slots = self.threads[tid.index()].vcounters.len();
        if slot as usize >= slots || !accum_addr.is_multiple_of(8) {
            return SYS_ERR;
        }
        if self.threads[tid.index()].vcounters[slot as usize].is_some() {
            return SYS_ERR;
        }
        if tag != 0 && !pmu_cfg.ext_tag_filter {
            return SYS_ERR;
        }
        self.threads[tid.index()].vcounters[slot as usize] = Some(VCounter::Limit {
            event,
            accum_addr,
            tag,
        });
        self.threads[tid.index()].uses_limit = true;
        let pmu = &mut self.machine.cores[i].pmu;
        pmu.configure(slot, limit_counter_cfg(pmu_cfg, event, accum_addr, tag))
            .expect("slot index validated");
        pmu.set_user_rdpmc(true);
        if let Some(o) = self.machine.oracle_mut() {
            o.note_open(tid, slot, event);
        }
        self.flight_record_tid(
            core,
            Some(tid.0),
            EventData::LimitOpen {
                slot,
                event: event.mnemonic(),
            },
        );
        0
    }

    fn limit_close(&mut self, core: CoreId, tid: ThreadId, slot: u64) -> u64 {
        let i = core.index();
        let t = &mut self.threads[tid.index()];
        let Some(Some(VCounter::Limit { accum_addr, .. })) =
            t.vcounters.get(slot as usize).copied()
        else {
            return SYS_ERR;
        };
        let raw = self.machine.cores[i]
            .pmu
            .read_clear(slot as u8)
            .expect("slot index validated");
        if raw > 0 {
            self.machine
                .mem
                .fetch_add_u64(accum_addr, raw)
                .expect("aligned at limit_open");
            self.limit.folds += 1;
            self.bump_seq(tid);
        }
        let _ = self.machine.cores[i].pmu.disable(slot as u8);
        let t = &mut self.threads[tid.index()];
        t.vcounters[slot as usize] = None;
        t.uses_limit = t
            .vcounters
            .iter()
            .any(|v| matches!(v, Some(VCounter::Limit { .. })));
        let uses_limit = t.uses_limit;
        self.machine.cores[i].pmu.set_user_rdpmc(uses_limit);
        if let Some(o) = self.machine.oracle_mut() {
            o.note_close(tid, slot as u8);
        }
        self.flight_record_tid(
            core,
            Some(tid.0),
            EventData::LimitClose { slot: slot as u8 },
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::{encode_event, nr};
    use sim_cpu::{Asm, Cond, EventKind, MachineConfig, Reg};
    use sim_mem::HierarchyConfig;

    fn boot(prog: sim_cpu::Program, cores: usize) -> Kernel {
        let mcfg = MachineConfig::new(cores).with_hierarchy(HierarchyConfig::tiny());
        Kernel::new(Machine::new(mcfg, prog).unwrap(), KernelConfig::default())
    }

    fn boot_cfg(prog: sim_cpu::Program, cores: usize, kcfg: KernelConfig) -> Kernel {
        let mcfg = MachineConfig::new(cores).with_hierarchy(HierarchyConfig::tiny());
        Kernel::new(Machine::new(mcfg, prog).unwrap(), kcfg)
    }

    #[test]
    fn single_thread_runs_to_exit() {
        let mut a = Asm::new();
        a.export("main");
        a.burst(100);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        let tid = k.spawn("main", &[]).unwrap();
        let report = k.run().unwrap();
        assert!(k.thread(tid).is_exited());
        assert!(report.total_cycles >= 100);
        assert_eq!(report.context_switches, 1);
    }

    #[test]
    fn two_threads_share_one_core_via_preemption() {
        let mut a = Asm::new();
        a.export("spin");
        a.imm(Reg::R1, 2_000);
        a.imm(Reg::R2, 0);
        let top = a.new_label();
        a.bind(top);
        a.burst(50);
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.halt();
        let kcfg = KernelConfig {
            quantum: 10_000,
            ..Default::default()
        };
        let mut k = boot_cfg(a.assemble().unwrap(), 1, kcfg);
        let t0 = k.spawn("spin", &[]).unwrap();
        let t1 = k.spawn("spin", &[]).unwrap();
        let report = k.run().unwrap();
        assert!(k.thread(t0).is_exited() && k.thread(t1).is_exited());
        assert!(report.preemptions > 5, "got {}", report.preemptions);
        assert!(report.context_switches > report.preemptions);
    }

    #[test]
    fn threads_spread_across_cores() {
        let mut a = Asm::new();
        a.export("spin");
        a.burst(10_000);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 4);
        for _ in 0..4 {
            k.spawn("spin", &[]).unwrap();
        }
        let report = k.run().unwrap();
        // Perfect parallelism: total wall clock is ~one thread's length.
        assert!(
            report.total_cycles < 2 * 10_100,
            "got {}",
            report.total_cycles
        );
    }

    #[test]
    fn gettid_and_log_syscalls() {
        let mut a = Asm::new();
        a.export("main");
        a.syscall(nr::GETTID);
        a.syscall(nr::LOG_VALUE); // logs r0 = tid
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        let tid = k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[tid.0 as u64]);
    }

    #[test]
    fn unknown_syscall_returns_err() {
        let mut a = Asm::new();
        a.export("main");
        a.syscall(9_999);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[SYS_ERR]);
    }

    #[test]
    fn nanosleep_advances_the_clock() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 1_000_000);
        a.syscall(nr::NANOSLEEP);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        let report = k.run().unwrap();
        assert!(report.total_cycles >= 1_000_000);
    }

    #[test]
    fn futex_handshake_wakes_waiter() {
        // Thread A waits on word 0x10000 (value 0); thread B stores 1 and
        // wakes it; A then logs the new value.
        let mut a = Asm::new();
        a.export("waiter");
        a.imm(Reg::R0, 0x10000);
        a.imm(Reg::R1, 0);
        a.syscall(nr::FUTEX_WAIT);
        a.imm(Reg::R6, 0x10000);
        a.load(Reg::R0, Reg::R6, 0);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        a.export("waker");
        a.burst(5_000); // let the waiter block first
        a.imm(Reg::R6, 0x10000);
        a.imm(Reg::R7, 1);
        a.store(Reg::R7, Reg::R6, 0);
        a.imm(Reg::R0, 0x10000);
        a.imm(Reg::R1, 10);
        a.syscall(nr::FUTEX_WAKE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 2);
        k.spawn("waiter", &[]).unwrap();
        k.spawn("waker", &[]).unwrap();
        let report = k.run().unwrap();
        assert_eq!(k.log(), &[1]);
        assert_eq!(report.futex.0, 1);
        assert_eq!(report.futex.1, 1);
    }

    #[test]
    fn futex_wait_with_stale_value_returns_immediately() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R6, 0x10000);
        a.imm(Reg::R7, 5);
        a.store(Reg::R7, Reg::R6, 0);
        a.imm(Reg::R0, 0x10000);
        a.imm(Reg::R1, 0); // expect 0, actual 5 -> mismatch
        a.syscall(nr::FUTEX_WAIT);
        a.syscall(nr::LOG_VALUE); // r0 == 1 (mismatch)
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[1]);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 0x10000);
        a.imm(Reg::R1, 0);
        a.syscall(nr::FUTEX_WAIT); // nobody will wake us
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        let err = k.run().unwrap_err();
        assert_eq!(err.category(), "harness");
        assert!(err.message().contains("deadlock"));
    }

    #[test]
    fn perf_counting_survives_context_switches() {
        // Two CPU-bound threads on one core with a small quantum; each
        // opens a perf counter on instructions and logs its reading, which
        // must match its own instruction count, not the interleaving's.
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, encode_event(EventKind::Instructions));
        a.imm(Reg::R1, 0);
        a.syscall(nr::PERF_OPEN);
        a.mov(Reg::R8, Reg::R0); // fd
                                 // 100 iterations x (burst 50 + sub + br) = 100*52 instrs
        a.imm(Reg::R1, 100);
        a.imm(Reg::R2, 0);
        let top = a.new_label();
        a.bind(top);
        a.burst(50);
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.mov(Reg::R0, Reg::R8);
        a.syscall(nr::PERF_READ);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let kcfg = KernelConfig {
            quantum: 5_000,
            ..Default::default()
        };
        let mut k = boot_cfg(a.assemble().unwrap(), 1, kcfg);
        k.spawn("main", &[]).unwrap();
        k.spawn("main", &[]).unwrap();
        let report = k.run().unwrap();
        assert!(report.preemptions > 0, "need interleaving for the test");
        assert_eq!(k.log().len(), 2);
        for &v in k.log() {
            // Per thread: open-sequence (3 syscalls-adjacent instrs) + loop
            // + read-mov. The loop dominates: 5200 ± small constant.
            assert!(
                (5200..5230).contains(&v),
                "virtualized count off: {v} (expected ~5207)"
            );
        }
    }

    #[test]
    fn limit_counter_reads_match_across_switches() {
        // Two threads each attach a LiMiT counter (own accumulator, passed
        // as a spawn argument in r0) and read it with the userspace
        // sequence; with fix-up enabled the value equals each thread's
        // private instruction count even under heavy preemption.
        let mut a = Asm::new();
        a.export("main");
        a.mov(Reg::R9, Reg::R0); // r9 = accumulator address (arg)
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, encode_event(EventKind::Instructions));
        a.mov(Reg::R2, Reg::R9);
        a.syscall(nr::LIMIT_OPEN);
        // loop: 200 iterations of burst + read
        a.imm(Reg::R1, 200);
        a.imm(Reg::R2, 0);
        let top = a.new_label();
        a.bind(top);
        a.burst(50);
        // read sequence: load accum; rdpmc; add
        let seq_start = a.here();
        a.load(Reg::R4, Reg::R9, 0);
        a.rdpmc(Reg::R5, 0);
        a.add(Reg::R4, Reg::R5);
        let seq_end = a.here();
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.mov(Reg::R0, Reg::R4);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let prog = a.assemble().unwrap();

        let kcfg = KernelConfig {
            quantum: 3_000,
            ..Default::default()
        };
        let mut k = boot_cfg(prog, 1, kcfg);
        // Register the restart range via host (kernel API) for simplicity.
        let _ = k.register_restart_range(seq_start, seq_end);
        k.spawn("main", &[0x20000]).unwrap();
        k.spawn("main", &[0x20040]).unwrap();
        let report = k.run().unwrap();
        assert!(report.preemptions > 0);
        assert!(report.limit_folds > 0, "folds must have happened");
        assert_eq!(k.log().len(), 2);
        for &v in k.log() {
            // The final read's rdpmc happens on iteration 200; by then the
            // thread retired: 2 setup after LIMIT_OPEN (imm, imm) + 199
            // full iterations of 55 (burst50+ld+rdpmc+add+sub+br) + final
            // burst50 + ld = 10998 counted before the last rdpmc. Restart
            // rewinds re-execute a couple of instructions, so allow a small
            // overshoot — never an undershoot.
            assert!((10_998..11_100).contains(&v), "limit read off: {v}");
        }
    }

    #[test]
    fn limit_read_equals_perf_ground_truth_exactly() {
        // Single thread, no interference: the LiMiT userspace read and the
        // known instruction count must agree exactly.
        let accum = 0x20000u64;
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, encode_event(EventKind::Instructions));
        a.imm(Reg::R2, accum);
        a.syscall(nr::LIMIT_OPEN); // after return, counting starts
        a.burst(100);
        a.imm(Reg::R9, accum);
        a.load(Reg::R4, Reg::R9, 0);
        a.rdpmc(Reg::R5, 0);
        a.add(Reg::R4, Reg::R5);
        a.mov(Reg::R0, Reg::R4);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        // Instructions counted before the rdpmc reads the counter:
        // burst(100) + imm + load = 102. (rdpmc's own retirement lands
        // after its read; kernel-mode instructions are excluded by the
        // user-only filter.)
        assert_eq!(k.log(), &[102]);
    }

    #[test]
    fn sampling_records_hits_at_period() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, encode_event(EventKind::Instructions));
        a.imm(Reg::R1, 1_000); // sample every 1000 instructions
        a.syscall(nr::PERF_OPEN);
        a.mov(Reg::R8, Reg::R0);
        a.burst(10_050);
        a.mov(Reg::R0, Reg::R8);
        a.syscall(nr::PERF_READ); // returns sample count for sampling fds
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        let report = k.run().unwrap();
        assert_eq!(k.log().len(), 1);
        let n = k.log()[0];
        assert!((9..=11).contains(&n), "expected ~10 samples, got {n}");
        assert!(report.pmis >= n);
        let samples = k.all_samples();
        assert_eq!(samples.len() as u64, n);
    }

    #[test]
    fn perf_disable_freezes_and_enable_resumes_counting() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, encode_event(EventKind::Instructions));
        a.imm(Reg::R1, 0);
        a.syscall(nr::PERF_OPEN);
        a.mov(Reg::R8, Reg::R0); // fd
        a.burst(100);
        a.mov(Reg::R0, Reg::R8);
        a.syscall(nr::PERF_DISABLE);
        a.burst(500); // must not count
        a.mov(Reg::R0, Reg::R8);
        a.syscall(nr::PERF_ENABLE);
        a.burst(50);
        a.mov(Reg::R0, Reg::R8);
        a.syscall(nr::PERF_READ);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        let v = k.log()[0];
        // Counted: ~100 (before disable, plus a few glue instrs) + ~50
        // (after enable) but NOT the 500 in between.
        assert!((150..200).contains(&v), "count {v}");
    }

    #[test]
    fn perf_close_frees_the_slot_for_reuse() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, encode_event(EventKind::Instructions));
        a.imm(Reg::R1, 0);
        a.syscall(nr::PERF_OPEN);
        a.syscall(nr::PERF_CLOSE); // fd still in r0
        a.syscall(nr::LOG_VALUE); // 0 on success
                                  // Re-open must succeed (slot freed).
        a.imm(Reg::R0, encode_event(EventKind::Cycles));
        a.imm(Reg::R1, 0);
        a.syscall(nr::PERF_OPEN);
        a.syscall(nr::LOG_VALUE); // new fd, not SYS_ERR
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log()[0], 0);
        assert_ne!(k.log()[1], SYS_ERR);
    }

    #[test]
    fn foreign_fd_operations_are_rejected() {
        // Thread B tries to read thread A's fd: SYS_ERR.
        let mut a = Asm::new();
        a.export("opener");
        a.imm(Reg::R0, encode_event(EventKind::Cycles));
        a.imm(Reg::R1, 0);
        a.syscall(nr::PERF_OPEN); // fd 0
        a.burst(60_000); // stay alive while the reader pokes
        a.halt();
        a.export("thief");
        a.burst(5_000); // let the opener go first
        a.imm(Reg::R0, 0); // fd 0 belongs to the opener
        a.syscall(nr::PERF_READ);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 2);
        k.spawn("opener", &[]).unwrap();
        k.spawn("thief", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[SYS_ERR]);
    }

    #[test]
    fn limit_set_seq_validates_alignment() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 0x10001); // unaligned
        a.syscall(nr::LIMIT_SET_SEQ);
        a.syscall(nr::LOG_VALUE);
        a.imm(Reg::R0, 0x10008); // aligned
        a.syscall(nr::LIMIT_SET_SEQ);
        a.syscall(nr::LOG_VALUE);
        a.imm(Reg::R0, 0); // unregister
        a.syscall(nr::LIMIT_SET_SEQ);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[SYS_ERR, 0, 0]);
    }

    #[test]
    fn limit_open_rejects_bad_arguments() {
        let mut a = Asm::new();
        a.export("main");
        // Bad event index.
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, 999);
        a.imm(Reg::R2, 0x20000);
        a.imm(Reg::R3, 0);
        a.syscall(nr::LIMIT_OPEN);
        a.syscall(nr::LOG_VALUE);
        // Unaligned accumulator.
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, 0);
        a.imm(Reg::R2, 0x20001);
        a.syscall(nr::LIMIT_OPEN);
        a.syscall(nr::LOG_VALUE);
        // Slot out of range.
        a.imm(Reg::R0, 99);
        a.imm(Reg::R1, 0);
        a.imm(Reg::R2, 0x20000);
        a.syscall(nr::LIMIT_OPEN);
        a.syscall(nr::LOG_VALUE);
        // Tag without the tag-filter extension.
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, 0);
        a.imm(Reg::R2, 0x20000);
        a.imm(Reg::R3, 7);
        a.syscall(nr::LIMIT_OPEN);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[SYS_ERR; 4]);
    }

    #[test]
    fn limit_close_folds_and_releases_the_slot() {
        let accum = 0x20000u64;
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, encode_event(EventKind::Instructions));
        a.imm(Reg::R2, accum);
        a.imm(Reg::R3, 0);
        a.syscall(nr::LIMIT_OPEN);
        a.burst(200);
        a.imm(Reg::R0, 0);
        a.syscall(nr::LIMIT_CLOSE);
        a.burst(999); // must not count
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        let tid = k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        let total = k.machine.mem.read_u64(accum).unwrap();
        // burst(200) + imm = 201 before the close syscall retires.
        assert!((200..=205).contains(&total), "folded {total}");
        assert!(!k.thread(tid).uses_limit);
    }

    #[test]
    fn guest_spawn_forks_and_joins_via_futex() {
        // The parent spawns 4 children at `child`; each atomically
        // increments a done-counter and wakes the parent, which waits
        // until all 4 finished, then logs the counter.
        let done = 0x30000u64;
        let mut a = Asm::new();
        let child_entry = {
            // Emit the child first so its PC is known when the parent
            // emits spawn syscalls.
            a.export("child");
            a.mov(Reg::R10, Reg::R0); // done address (arg0)
            a.burst(2_000);
            a.imm(Reg::R4, 1);
            a.fetch_add(Reg::R4, Reg::R10, 0);
            a.mov(Reg::R0, Reg::R10);
            a.imm(Reg::R1, 10);
            a.syscall(nr::FUTEX_WAKE);
            a.halt();
            0u32 // child starts at pc 0
        };
        a.export("parent");
        for _ in 0..4 {
            a.imm(Reg::R0, child_entry as u64);
            a.imm(Reg::R1, done); // child's r0
            a.imm(Reg::R2, 0);
            a.syscall(nr::SPAWN);
        }
        // Wait until the counter reaches 4.
        a.imm(Reg::R12, done);
        a.imm(Reg::R13, 4);
        let wait = a.new_label();
        let ready = a.new_label();
        a.bind(wait);
        a.load(Reg::R11, Reg::R12, 0);
        a.br(Cond::Eq, Reg::R11, Reg::R13, ready);
        a.mov(Reg::R0, Reg::R12);
        a.mov(Reg::R1, Reg::R11);
        a.syscall(nr::FUTEX_WAIT);
        a.jmp(wait);
        a.bind(ready);
        a.load(Reg::R0, Reg::R12, 0);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 2);
        k.spawn("parent", &[]).unwrap();
        let report = k.run().unwrap();
        assert_eq!(k.log(), &[4]);
        assert_eq!(k.threads().len(), 5, "parent + 4 children");
        assert!(k.threads().iter().all(|t| t.is_exited()));
        assert!(report.total_cycles > 2_000);
    }

    #[test]
    fn guest_spawn_rejects_bad_entry() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 999_999);
        a.syscall(nr::SPAWN);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        assert_eq!(k.log(), &[SYS_ERR]);
    }

    #[test]
    fn periodic_hook_fires_and_sees_guest_memory() {
        // The guest stores an increasing value at 0x10000; the hook
        // observes it mid-run (values strictly increase) and counts
        // firings spaced by the requested cadence.
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R6, 0x10000);
        a.imm(Reg::R1, 500);
        a.imm(Reg::R2, 0);
        let top = a.new_label();
        a.bind(top);
        a.burst(100);
        a.store(Reg::R1, Reg::R6, 0);
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        let mut fires: Vec<(u64, u64)> = Vec::new();
        k.run_with_hook(5_000, |m, now| {
            fires.push((now, m.mem.read_u64(0x10000)?));
            Ok(())
        })
        .unwrap();
        assert!(fires.len() >= 5, "only {} firings", fires.len());
        // Fired at the requested cadence (allowing instruction granularity).
        for w in fires.windows(2) {
            assert!(w[1].0 >= w[0].0 + 5_000);
        }
        // Mid-run observation: the guest word changes across firings.
        let observed: Vec<u64> = fires.iter().map(|f| f.1).collect();
        assert!(observed.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn run_times_out_on_infinite_loop() {
        let mut a = Asm::new();
        a.export("main");
        let top = a.new_label();
        a.bind(top);
        a.jmp(top);
        let kcfg = KernelConfig {
            max_cycles: 100_000,
            ..Default::default()
        };
        let mut k = boot_cfg(a.assemble().unwrap(), 1, kcfg);
        k.spawn("main", &[]).unwrap();
        assert_eq!(k.run().unwrap_err().category(), "timeout");
    }

    #[test]
    fn fault_reports_thread_and_pc() {
        let mut a = Asm::new();
        a.export("main");
        a.rdpmc(Reg::R1, 0); // user rdpmc not enabled -> fault
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        let err = k.run().unwrap_err();
        assert_eq!(err.category(), "fault");
        assert!(err.message().contains("rdpmc"));
    }

    #[test]
    fn pinned_threads_stay_on_their_core() {
        let mut a = Asm::new();
        a.export("spin");
        a.burst(20_000);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 2);
        let t0 = k.spawn_pinned("spin", &[], CoreId::new(1)).unwrap();
        k.run().unwrap();
        assert_eq!(k.thread(t0).last_core, Some(CoreId::new(1)));
        assert_eq!(k.thread(t0).stats.migrations, 0);
    }

    #[test]
    fn narrow_counters_overflow_and_stay_correct() {
        // 16-bit counters force overflow PMIs; the virtualized LiMiT value
        // must still be exact.
        let accum = 0x20000u64;
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, encode_event(EventKind::Instructions));
        a.imm(Reg::R2, accum);
        a.syscall(nr::LIMIT_OPEN);
        // Retire ~200k instructions: 2000 x burst(100); plus loop overhead.
        a.imm(Reg::R1, 2_000);
        a.imm(Reg::R2, 0);
        let top = a.new_label();
        a.bind(top);
        a.burst(100);
        a.alui_sub(Reg::R1, 1);
        a.br(Cond::Ne, Reg::R1, Reg::R2, top);
        a.imm(Reg::R9, accum);
        a.load(Reg::R4, Reg::R9, 0);
        a.rdpmc(Reg::R5, 0);
        a.add(Reg::R4, Reg::R5);
        a.mov(Reg::R0, Reg::R4);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let prog = a.assemble().unwrap();
        let mcfg = MachineConfig::new(1)
            .with_hierarchy(HierarchyConfig::tiny())
            .with_pmu(sim_cpu::PmuConfig {
                counter_bits: 16,
                ..Default::default()
            });
        let mut k = Kernel::new(Machine::new(mcfg, prog).unwrap(), KernelConfig::default());
        k.spawn("main", &[]).unwrap();
        let report = k.run().unwrap();
        assert!(
            report.pmis > 2,
            "16-bit counter must overflow: {}",
            report.pmis
        );
        // loop: 2000*(100+2) = 204000, head 2, trailing imm+load = 2
        // (rdpmc reads before its own retirement is counted).
        assert_eq!(k.log(), &[204_004]);
    }

    #[test]
    fn restart_range_overlap_fails_the_syscall_and_is_counted() {
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 2);
        a.imm(Reg::R1, 5);
        a.syscall(nr::LIMIT_SET_RESTART_RANGE);
        a.syscall(nr::LOG_VALUE); // 0: registered
        a.imm(Reg::R0, 4);
        a.imm(Reg::R1, 8);
        a.syscall(nr::LIMIT_SET_RESTART_RANGE); // overlaps [2, 5)
        a.syscall(nr::LOG_VALUE); // SYS_ERR: rejected, sequence unprotected
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        k.spawn("main", &[]).unwrap();
        let report = k.run().unwrap();
        assert_eq!(k.log(), &[0, SYS_ERR]);
        assert_eq!(report.limit_rejected_ranges, 1);
    }

    #[test]
    fn limit_open_rejects_slots_beyond_the_hardware() {
        let mut a = Asm::new();
        a.export("main");
        for slot in [0u64, 1, 2] {
            a.imm(Reg::R0, slot);
            a.imm(Reg::R1, encode_event(EventKind::Instructions));
            a.imm(Reg::R2, 0x20000 + slot * 8);
            a.imm(Reg::R3, 0);
            a.syscall(nr::LIMIT_OPEN);
            a.syscall(nr::LOG_VALUE);
        }
        a.halt();
        let mcfg = MachineConfig::new(1)
            .with_hierarchy(HierarchyConfig::tiny())
            .with_pmu(sim_cpu::PmuConfig {
                programmable: 2,
                ..Default::default()
            });
        let mut k = Kernel::new(
            Machine::new(mcfg, a.assemble().unwrap()).unwrap(),
            KernelConfig::default(),
        );
        k.spawn("main", &[]).unwrap();
        k.run().unwrap();
        // Slots 0 and 1 exist on this 2-counter PMU; slot 2 must fail
        // deterministically at open, never alias another counter.
        assert_eq!(k.log(), &[0, 0, SYS_ERR]);
    }

    #[test]
    fn injected_disturbances_fire_and_are_fixed_up() {
        let accum = 0x20000u64;
        let mut a = Asm::new();
        a.export("main");
        a.imm(Reg::R0, 0);
        a.imm(Reg::R1, encode_event(EventKind::Instructions));
        a.imm(Reg::R2, accum);
        a.syscall(nr::LIMIT_OPEN);
        a.burst(100);
        a.imm(Reg::R9, accum);
        let seq_start = a.here();
        a.load(Reg::R4, Reg::R9, 0);
        a.rdpmc(Reg::R5, 0);
        a.add(Reg::R4, Reg::R5);
        let seq_end = a.here();
        a.mov(Reg::R0, Reg::R4);
        a.syscall(nr::LOG_VALUE);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 1);
        let _ = k.register_restart_range(seq_start, seq_end);
        let tid = k.spawn("main", &[]).unwrap();
        // Both disturbances land between the load and the rdpmc — the
        // exact window the restart fix-up exists for.
        k.set_injector(&[
            Injection {
                tid,
                pc: seq_start + 1,
                hit: 1,
                action: InjectAction::Preempt,
            },
            Injection {
                tid,
                pc: seq_start + 1,
                hit: 2,
                action: InjectAction::Pmi,
            },
        ]);
        let report = k.run().unwrap();
        assert_eq!(k.injector().unwrap().fired, 2);
        assert!(report.limit_fixups >= 2, "fixups {}", report.limit_fixups);
        assert!(report.limit_folds >= 2, "folds {}", report.limit_folds);
        // burst(100) + imm + load = 102 before the first rdpmc attempt;
        // each of the two rewinds re-executes the load (+1 each). The
        // value stays *consistent* — accumulator + raw at one instant.
        assert_eq!(k.log(), &[104]);
    }

    #[test]
    fn injected_migration_moves_the_thread() {
        let mut a = Asm::new();
        a.export("main");
        a.burst(500);
        a.burst(500);
        a.halt();
        let mut k = boot(a.assemble().unwrap(), 2);
        let tid = k.spawn("main", &[]).unwrap();
        // Fire between the two bursts (each burst is one instruction).
        k.set_injector(&[Injection {
            tid,
            pc: 1,
            hit: 1,
            action: InjectAction::Migrate,
        }]);
        let report = k.run().unwrap();
        assert_eq!(k.injector().unwrap().fired, 1);
        assert_eq!(report.migrations, 1);
        assert_eq!(k.thread(tid).last_core, Some(CoreId::new(1)));
    }

    #[test]
    fn oracle_validates_reads_and_catches_the_unfixed_race() {
        let run = |fixup: bool| {
            let accum = 0x20000u64;
            let mut a = Asm::new();
            a.export("main");
            a.imm(Reg::R0, 0);
            a.imm(Reg::R1, encode_event(EventKind::Instructions));
            a.imm(Reg::R2, accum);
            a.syscall(nr::LIMIT_OPEN);
            a.imm(Reg::R9, accum);
            a.imm(Reg::R1, 10);
            a.imm(Reg::R2, 0);
            let top = a.new_label();
            a.bind(top);
            a.burst(20);
            let seq_start = a.here();
            a.load(Reg::R4, Reg::R9, 0);
            a.rdpmc(Reg::R5, 0);
            a.add(Reg::R4, Reg::R5);
            let seq_end = a.here();
            a.alui_sub(Reg::R1, 1);
            a.br(Cond::Ne, Reg::R1, Reg::R2, top);
            a.halt();
            let kcfg = KernelConfig {
                restart_fixup: fixup,
                ..Default::default()
            };
            let mut k = boot_cfg(a.assemble().unwrap(), 1, kcfg);
            let _ = k.register_restart_range(seq_start, seq_end);
            k.machine.enable_oracle(&[(seq_start, seq_end)]);
            let tid = k.spawn("main", &[]).unwrap();
            k.set_injector(&[Injection {
                tid,
                pc: seq_start + 1,
                hit: 4,
                action: InjectAction::Preempt,
            }]);
            k.run().unwrap();
            let o = k.machine.oracle().unwrap();
            (o.checks, o.divergences().len())
        };
        let (checks_on, div_on) = run(true);
        assert_eq!(checks_on, 10);
        assert_eq!(div_on, 0, "fix-up must keep every read consistent");
        let (checks_off, div_off) = run(false);
        assert_eq!(checks_off, 10);
        assert!(div_off > 0, "disabled fix-up must expose the read race");
    }
}
