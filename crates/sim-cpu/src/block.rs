//! Local-run table for the block-stepped executor.
//!
//! [`BlockMap::build`] records, for every pc, the longest straight-line run
//! of *core-local, PMU-silent* instructions that starts there
//! ([`Instr::local_cost`]: `Imm`, `Mov`, `Alu`, `AluImm`, `Nop`, `Burst`),
//! with the run's cycles and retired instructions pre-summed against the
//! machine's [`CostModel`]. A run ends at the first instruction that is not
//! local, at any pc covered by a registered LiMiT restart range (the
//! kernel's restart fix-up can rewind execution onto any of them), and at
//! any armed injection pc (the kernel must regain control there). When the
//! instruction that ends a run is a `Br` or `Jmp` that is neither in-range
//! nor armed, the entry marks it as the run's branch tail.
//!
//! The executor ([`crate::machine::Machine::run_until_with`]) runs a whole
//! run plus its branch tail as one unit whenever the unit provably cannot
//! cross a poll point or an armed-counter overflow; every other pc,
//! in-range pcs included, executes one instruction at a time with batched
//! PMU accrual.

use crate::cost::CostModel;
use crate::isa::Instr;
use crate::prog::Program;

/// The local run starting at one pc. `len == 0` means the pc starts no
/// run and executes one instruction at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalRun {
    /// Number of local instructions in the run.
    pub(crate) len: u32,
    /// Whether the instruction right after the run is a `Br`/`Jmp` the
    /// executor may take in the same unit. Its cost is not in `cycles`: a
    /// branch's cost depends on the predictor, so the executor bounds it
    /// by its worst case and charges the real cost when it runs.
    pub(crate) branch: bool,
    /// Pre-summed cycles of the run's instructions.
    pub(crate) cycles: u64,
    /// Pre-summed retired instructions of the run (bursts retire several).
    pub(crate) instrs: u64,
}

/// Per-pc tables the block-stepped executor consumes: the LiMiT-range
/// table and the local-run table.
#[derive(Debug, Clone)]
pub struct BlockMap {
    /// `in_limit[pc]`: pc lies inside a registered LiMiT restart range.
    in_limit: Vec<bool>,
    /// `runs[pc]`: the local run starting at pc.
    runs: Vec<LocalRun>,
}

impl BlockMap {
    /// Builds the tables for `prog` against the registered LiMiT `ranges`
    /// (half-open `[start, end)` pc intervals), the injector's per-pc
    /// `armed_pcs` table (if any), and the machine's cost model.
    pub fn build(
        prog: &Program,
        ranges: &[(u32, u32)],
        armed_pcs: Option<&[bool]>,
        cost: &CostModel,
    ) -> Self {
        let n = prog.len();
        let mut in_limit = vec![false; n];
        for &(s, e) in ranges {
            for pc in s..e.min(n as u32) {
                in_limit[pc as usize] = true;
            }
        }
        let ends_runs =
            |pc: usize| in_limit[pc] || armed_pcs.and_then(|a| a.get(pc)).copied().unwrap_or(false);
        let mut runs = vec![LocalRun::default(); n];
        // Backward pass: the run at pc is pc's instruction followed by the
        // run at pc + 1, or the branch tail when pc + 1 starts no run.
        for pc in (0..n).rev() {
            if ends_runs(pc) {
                continue;
            }
            let Some((cycles, instrs)) = prog.instrs[pc].local_cost(cost) else {
                continue;
            };
            let next = pc + 1;
            let rest = runs.get(next).copied().unwrap_or_default();
            let branch = if rest.len > 0 {
                rest.branch
            } else {
                next < n
                    && !ends_runs(next)
                    && matches!(prog.instrs[next], Instr::Br(..) | Instr::Jmp(_))
            };
            runs[pc] = LocalRun {
                len: rest.len + 1,
                branch,
                cycles: rest.cycles.saturating_add(cycles),
                instrs: rest.instrs.saturating_add(instrs),
            };
        }
        BlockMap { in_limit, runs }
    }

    /// Whether `pc` lies inside a registered LiMiT restart range.
    pub fn in_limit_range(&self, pc: u32) -> bool {
        self.in_limit.get(pc as usize).copied().unwrap_or(false)
    }

    /// The per-pc LiMiT-range table (what [`crate::machine::RunLimits`]
    /// borrows).
    pub fn in_limit(&self) -> &[bool] {
        &self.in_limit
    }

    /// The per-pc local-run table (what
    /// [`crate::machine::Machine::run_until_with`] consumes).
    pub fn runs(&self) -> &[LocalRun] {
        &self.runs
    }

    /// The local run starting at `pc` (empty past the program's end).
    #[cfg(test)]
    fn run_at(&self, pc: u32) -> LocalRun {
        self.runs.get(pc as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::core::{Mode, Step, Trap};
    use crate::events::EventKind;
    use crate::isa::{AluOp, Cond};
    use crate::machine::{Machine, MachineConfig, RunExit, RunLimits};
    use crate::pmu::{CounterCfg, PmuConfig};
    use crate::prog::Label;
    use crate::regs::{Context, Reg};
    use proptest::prelude::*;
    use sim_core::{CoreId, ThreadId};
    use sim_mem::HierarchyConfig;

    /// Base of the 8-slot data area the generated loads and stores touch
    /// (addressed off `r9`, which no generated instruction writes).
    const DATA: i32 = 0x1000;
    /// Guest word the self-virtualizing counter spills into.
    const SPILL_ADDR: u64 = 0x8000;

    /// Assembles one instruction per `(opcode, operand)` descriptor plus a
    /// trailing halt; control-flow operands index into the descriptor list.
    fn program_from(ops: &[(u8, u8)]) -> Program {
        let mut a = Asm::new();
        let labels: Vec<Label> = (0..ops.len()).map(|_| a.new_label()).collect();
        for (i, &(op, t)) in ops.iter().enumerate() {
            a.bind(labels[i]);
            let target = labels[t as usize % ops.len()];
            let slot = DATA + 8 * (t % 8) as i32;
            match op % 16 {
                0 => a.nop(),
                1 => a.alui_add(Reg::R1, 1),
                2 => a.load(Reg::R2, Reg::R9, slot),
                3 => a.br(Cond::Ne, Reg::R1, Reg::R2, target),
                4 => a.jmp(target),
                5 => a.call(target),
                6 => a.syscall(0),
                // Mostly a plain move: `ret` on an empty stack faults.
                7 if t % 4 == 0 => a.ret(),
                7 => a.mov(Reg::R2, Reg::R3),
                8 => a.store(Reg::R1, Reg::R9, slot),
                9 => a.imm(Reg::R2, t as u64),
                10 => a.mov(Reg::R3, Reg::R1),
                11 => a.alu(AluOp::Xor, Reg::R3, Reg::R2),
                12 => a.burst(t as u32 % 7 + 1),
                13 => a.rdpmc(Reg::R4, 0),
                14 => a.br(Cond::Lt, Reg::R3, Reg::R1, target),
                _ => a.alui(AluOp::Mul, Reg::R1, 3),
            };
        }
        a.halt();
        a.assemble().unwrap()
    }

    fn cost_from(v: &[u64]) -> CostModel {
        CostModel {
            alu: v[0],
            branch: v[1],
            branch_miss_penalty: v[2],
            call: v[3],
            mem_issue: v[4],
            atomic_penalty: v[5],
            rdpmc: v[6],
            rdtsc: v[7],
            settag: v[8],
            spill: v[9],
            syscall_entry: v[10],
            syscall_exit: v[11],
        }
    }

    /// A machine with one user-mode pseudo-thread per core; core `i`
    /// starts at pc `5 * i` (wrapped into the program).
    fn machine(prog: Program, cost: CostModel, pmu: PmuConfig, cores: usize) -> Machine {
        let cfg = MachineConfig::new(cores)
            .with_hierarchy(HierarchyConfig::tiny())
            .with_cost(cost)
            .with_pmu(pmu);
        let n = prog.len() as u32;
        let mut m = Machine::new(cfg, prog).unwrap();
        for (i, core) in m.cores.iter_mut().enumerate() {
            core.ctx = Context::at(5 * i as u32 % n);
            core.running = Some(ThreadId::new(i as u32 + 1));
            core.mode = Mode::User;
        }
        m
    }

    #[test]
    fn straight_line_program_is_one_run() {
        let mut a = Asm::new();
        a.nop();
        a.burst(5);
        a.nop();
        a.halt();
        let prog = a.assemble().unwrap();
        let map = BlockMap::build(&prog, &[], None, &CostModel::default());
        let run = |len, cycles, instrs| LocalRun {
            len,
            branch: false,
            cycles,
            instrs,
        };
        assert_eq!(map.run_at(0), run(3, 7, 7));
        assert_eq!(map.run_at(1), run(2, 6, 6));
        assert_eq!(map.run_at(3), LocalRun::default(), "halt starts no run");
        assert_eq!(map.run_at(4), LocalRun::default(), "past the end");
    }

    #[test]
    fn a_branch_ends_a_run_as_its_tail() {
        let mut a = Asm::new();
        a.imm(Reg::R1, 3); // 0
        let top = a.new_label();
        a.bind(top);
        a.alui_sub(Reg::R1, 1); // 1
        a.nop(); // 2
        a.br(Cond::Ne, Reg::R1, Reg::R2, top); // 3
        a.halt(); // 4
        let prog = a.assemble().unwrap();
        let map = BlockMap::build(&prog, &[], None, &CostModel::default());
        assert_eq!(
            map.run_at(1),
            LocalRun {
                len: 2,
                branch: true,
                cycles: 2,
                instrs: 2,
            }
        );
        assert_eq!(map.run_at(0).len, 3);
        assert!(map.run_at(0).branch);
        assert_eq!(
            map.run_at(3),
            LocalRun::default(),
            "a lone branch is no run"
        );
    }

    #[test]
    fn limit_range_and_armed_pcs_end_runs() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        for _ in 0..6 {
            a.nop(); // 0..6: 1-3 in range, 5 armed
        }
        a.jmp(top); // 6
        let prog = a.assemble().unwrap();
        let armed = [false, false, false, false, false, true, false];
        let map = BlockMap::build(&prog, &[(1, 4)], Some(&armed), &CostModel::default());
        assert_eq!(map.run_at(0).len, 1);
        assert!(!map.run_at(0).branch);
        for pc in 1..4 {
            assert!(map.in_limit_range(pc));
            assert_eq!(map.run_at(pc), LocalRun::default());
        }
        assert!(!map.in_limit_range(0) && !map.in_limit_range(4));
        assert_eq!(map.run_at(4).len, 1, "an armed pc ends the run before it");
        assert_eq!(map.run_at(5), LocalRun::default());
        // Without the injector, pc 4 runs on to the jump.
        let map = BlockMap::build(&prog, &[(1, 4)], None, &CostModel::default());
        assert_eq!(map.run_at(4).len, 2);
        assert!(map.run_at(4).branch);
    }

    /// What every execution path must leave identical on one core.
    #[derive(Debug, PartialEq)]
    struct CoreState {
        clock: u64,
        retired: u64,
        pc: u32,
        regs: [u64; crate::regs::NUM_REGS],
        raw: Vec<u64>,
        pmi_pending: bool,
        journal: u64,
    }

    /// Every core's state, then the generated data area and spill word.
    fn state(m: &Machine) -> (Vec<CoreState>, Vec<u64>) {
        let cores = m
            .cores
            .iter()
            .map(|c| CoreState {
                clock: c.clock,
                retired: c.retired,
                pc: c.ctx.pc,
                regs: c.ctx.regs,
                raw: (0..3).map(|i| c.pmu.read(i).unwrap()).collect(),
                pmi_pending: c.pmu.pmi_pending(),
                journal: c.pmu.spill_journal(),
            })
            .collect();
        let mem = (0..8)
            .map(|i| m.mem.read_u64(DATA as u64 + 8 * i).unwrap())
            .chain([m.mem.read_u64(SPILL_ADDR).unwrap()])
            .collect();
        (cores, mem)
    }

    /// The single-core reference: `run_until`'s exit rules applied between
    /// per-instruction `Machine::step` calls (no batching, no runs).
    fn step_until(m: &mut Machine, stop: u64, wake: u64, armed: &[bool]) -> RunExit {
        let id = CoreId::new(0);
        if m.cores[0].pmu.spill_journal() > 0 {
            return RunExit::SpillJournal(id);
        }
        loop {
            let c = &m.cores[0];
            if c.clock >= stop {
                return RunExit::StopClock(id);
            }
            if c.clock >= wake {
                return RunExit::Wake(id);
            }
            if c.pmu.pmi_pending() {
                return RunExit::Pmi(id);
            }
            if armed.get(c.ctx.pc as usize).copied().unwrap_or(false) {
                return RunExit::Boundary(id);
            }
            let step = m.step(id).unwrap();
            if step.trap.is_some() {
                return RunExit::Trap(id, step);
            }
            let c = &m.cores[0];
            if c.pmu.spill_journal() > 0 {
                return RunExit::SpillJournal(id);
            }
            if c.clock >= wake {
                return RunExit::Wake(id);
            }
        }
    }

    /// One machine setup the execution paths are compared on.
    struct Case<'a> {
        prog: Program,
        ranges: &'a [(u32, u32)],
        armed: &'a [bool],
        cost: CostModel,
        pmu: PmuConfig,
        /// Programs every core's PMU.
        setup: &'a dyn Fn(&mut crate::pmu::Pmu),
        cores: usize,
    }

    /// Runs `case` through successive `(stop gap, wake gap)` windows under
    /// `run_until_with` (local runs as units), `run_until` (the same
    /// executor one instruction at a time) and, on one core, per-instruction
    /// `step`, serving every exit as the kernel would. The exits and the
    /// full machine state must agree after every window.
    fn check_exec_paths(case: &Case, windows: &[(u64, u64)]) {
        let map = BlockMap::build(&case.prog, case.ranges, Some(case.armed), &case.cost);
        let boot = || {
            let mut m = machine(case.prog.clone(), case.cost, case.pmu, case.cores);
            for core in &mut m.cores {
                (case.setup)(&mut core.pmu);
            }
            m
        };
        let mut units = boot();
        let mut plain = boot();
        let mut single = (case.cores == 1).then(boot);
        for &(stop_gap, wake_gap) in windows {
            let stop: Vec<u64> = units.cores.iter().map(|c| c.clock + stop_gap).collect();
            let now = units.cores.iter().map(|c| c.clock).min().unwrap_or(0);
            let limits = RunLimits {
                stop_at: &stop,
                wake_at: now + wake_gap,
                armed_pcs: Some(case.armed),
                in_limit: map.in_limit(),
            };
            let exit = units.run_until_with(&limits, map.runs()).unwrap();
            assert_eq!(exit, plain.run_until(&limits).unwrap());
            assert_eq!(state(&units), state(&plain));
            if let Some(single) = &mut single {
                assert_eq!(
                    exit,
                    step_until(single, stop[0], limits.wake_at, case.armed)
                );
                assert_eq!(state(&units), state(single));
            }
            let all: Vec<&mut Machine> = [Some(&mut units), Some(&mut plain), single.as_mut()]
                .into_iter()
                .flatten()
                .collect();
            match exit {
                // The kernel would serve the call; the pc is past it.
                RunExit::Trap(
                    _,
                    Step {
                        trap: Some(Trap::Syscall(_)),
                        ..
                    },
                ) => {}
                RunExit::Trap(..) | RunExit::Idle => break,
                RunExit::Pmi(c) => {
                    for m in all {
                        while m.cores[c.index()].pmu.take_pmi().is_some() {}
                    }
                }
                RunExit::SpillJournal(c) => {
                    for m in all {
                        m.cores[c.index()].pmu.take_spill_journal();
                    }
                }
                // The kernel single-steps across an armed pc.
                RunExit::Boundary(c) => {
                    let steps: Vec<Step> = all.into_iter().map(|m| m.step(c).unwrap()).collect();
                    assert!(steps.windows(2).all(|w| w[0] == w[1]));
                    if steps[0].trap.is_some() {
                        break;
                    }
                }
                RunExit::StopClock(_) | RunExit::Wake(_) => {}
            }
        }
        assert_eq!(state(&units), state(&plain));
    }

    #[test]
    fn units_are_exact_at_every_poll_and_overflow_edge() {
        // A loop of two local runs: four instructions with a branch tail
        // that alternates taken/not-taken (so it mispredicts), and one nop
        // with a jump tail. Sweeping the armed counter's headroom and the
        // stop/wake thresholds across a few iterations puts every overflow
        // and every poll point at each position inside and at the edge of
        // a unit.
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.alui_add(Reg::R1, 1);
        a.mov(Reg::R2, Reg::R1);
        a.alui(AluOp::And, Reg::R2, 1);
        a.burst(3);
        a.br(Cond::Eq, Reg::R2, Reg::R0, top);
        a.nop();
        a.jmp(top);
        let prog = a.assemble().unwrap();
        let events = [
            EventKind::Cycles,
            EventKind::Instructions,
            EventKind::Branches,
            EventKind::BranchMisses,
        ];
        fn unarmed(_: &mut crate::pmu::Pmu) {}
        let case = |cores| Case {
            prog: prog.clone(),
            ranges: &[],
            armed: &[],
            cost: CostModel::default(),
            pmu: PmuConfig {
                counter_bits: 8,
                ..Default::default()
            },
            setup: &unarmed,
            cores,
        };
        for event in events {
            for headroom in 1..=80u64 {
                let setup = |p: &mut crate::pmu::Pmu| {
                    p.configure(0, CounterCfg::user(event).with_pmi()).unwrap();
                    p.write(0, 256 - headroom).unwrap();
                };
                let armed = Case {
                    setup: &setup,
                    ..case(1)
                };
                check_exec_paths(&armed, &[(200, 400); 3]);
            }
        }
        for cores in 1..=2 {
            let case = case(cores);
            for gap in 1..=80u64 {
                check_exec_paths(&case, &[(gap, 1_000), (1_000, gap), (gap, gap + 1)]);
            }
        }

        // With free instructions, a unit's events are all Instructions and
        // branch events, so the branch tail's own events decide whether an
        // Instructions counter wraps exactly at the unit's end.
        let mut a = Asm::new();
        for _ in 0..40 {
            let next = a.new_label();
            a.nop();
            a.nop();
            a.nop();
            a.br(Cond::Eq, Reg::R0, Reg::R0, next);
            a.bind(next);
        }
        a.halt();
        let chain = a.assemble().unwrap();
        let free = CostModel {
            alu: 0,
            branch: 0,
            branch_miss_penalty: 0,
            ..CostModel::default()
        };
        for headroom in 1..=40u64 {
            let setup = |p: &mut crate::pmu::Pmu| {
                let cfg = CounterCfg::user(EventKind::Instructions).with_pmi();
                p.configure(0, cfg).unwrap();
                p.write(0, 256 - headroom).unwrap();
            };
            let case = Case {
                prog: chain.clone(),
                cost: free,
                setup: &setup,
                ..case(1)
            };
            check_exec_paths(&case, &[(1, 1); 8]);
        }
    }

    proptest! {
        /// Under a random cost model, no run spans an in-range, armed or
        /// non-local pc, every run is maximal, the branch tail is exactly
        /// an eligible `Br`/`Jmp`, and the pre-summed cycles and retired
        /// instructions equal what per-instruction stepping charges.
        #[test]
        fn run_table_matches_per_step_sums(
            ops in proptest::collection::vec((0u8..=255, 0u8..=255), 1..60),
            range in (0u32..60, 0u32..8),
            armed in proptest::collection::vec(0u8..16, 61),
            costs in proptest::collection::vec(0u64..50, 12),
        ) {
            let prog = program_from(&ops);
            let n = prog.len() as u32;
            let (s, len) = range;
            let s = s.min(n - 1);
            let ranges = [(s, (s + len).min(n))];
            let armed: Vec<bool> = armed.iter().map(|&a| a == 0).collect();
            let cost = cost_from(&costs);
            let map = BlockMap::build(&prog, &ranges, Some(&armed), &cost);
            let boundary = |pc: u32| map.in_limit_range(pc) || armed[pc as usize];
            let local = |pc: u32| prog.fetch(pc).and_then(|i| i.local_cost(&cost)).is_some();

            let mut m = machine(prog.clone(), cost, PmuConfig::default(), 1);
            for pc in 0..n {
                let run = map.run_at(pc);
                prop_assert_eq!(map.in_limit_range(pc), (s..ranges[0].1).contains(&pc));
                if run.len == 0 {
                    prop_assert_eq!(run, LocalRun::default());
                    prop_assert!(boundary(pc) || !local(pc));
                    continue;
                }
                let end = pc + run.len;
                for p in pc..end {
                    prop_assert!(local(p) && !boundary(p), "run at {pc} spans pc {p}");
                }
                prop_assert!(end >= n || boundary(end) || !local(end), "run at {pc} not maximal");
                let tail = end < n
                    && !boundary(end)
                    && matches!(prog.fetch(end), Some(Instr::Br(..) | Instr::Jmp(_)));
                prop_assert_eq!(run.branch, tail, "branch tail of the run at {pc}");

                let core = &mut m.cores[0];
                core.ctx.pc = pc;
                let (clock, retired) = (core.clock, core.retired);
                for _ in 0..run.len {
                    let step = m.step(CoreId::new(0)).unwrap();
                    prop_assert!(step.trap.is_none());
                }
                let core = &m.cores[0];
                prop_assert_eq!(core.ctx.pc, end);
                prop_assert_eq!(core.clock - clock, run.cycles, "cycles of the run at {pc}");
                prop_assert_eq!(core.retired - retired, run.instrs, "instrs of the run at {pc}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random programs on one or two cores under random stop/wake
        /// windows, an 8-bit armed counter (PMI folds or self-virtualizing
        /// spills), a LiMiT range and injection-armed pcs: every execution
        /// path exits at the same points with the same clock, retired
        /// count, registers, memory, PMU raw values and PMI boundary.
        #[test]
        fn run_until_matches_per_instruction_step(
            ops in proptest::collection::vec((0u8..=255, 0u8..=255), 1..60),
            range in (0u32..60, 0u32..8),
            armed in proptest::collection::vec(0u8..24, 61),
            costs in proptest::collection::vec(1u64..20, 12),
            windows in proptest::collection::vec((1u64..2_000, 1u64..3_000), 1..24),
            (preset, spill, cores) in (0u64..256, any::<bool>(), 1usize..=2),
        ) {
            let prog = program_from(&ops);
            let n = prog.len() as u32;
            let (s, len) = range;
            let s = s.min(n - 1);
            let ranges = [(s, (s + len).min(n))];
            let armed: Vec<bool> = armed.iter().map(|&a| a == 0).collect();
            let setup = |p: &mut crate::pmu::Pmu| {
                let armed_cfg = if spill {
                    CounterCfg::user(EventKind::Instructions).with_spill(SPILL_ADDR)
                } else {
                    CounterCfg::user(EventKind::Instructions).with_pmi()
                };
                p.configure(0, armed_cfg).unwrap();
                p.configure(1, CounterCfg::user(EventKind::Cycles)).unwrap();
                p.configure(2, CounterCfg::user(EventKind::Branches).with_pmi()).unwrap();
                p.write(0, preset).unwrap();
                p.write(2, 250).unwrap();
                p.set_user_rdpmc(true);
            };
            let case = Case {
                prog,
                ranges: &ranges,
                armed: &armed,
                cost: cost_from(&costs),
                pmu: PmuConfig {
                    counter_bits: 8,
                    ext_self_virtualizing: spill,
                    ..Default::default()
                },
                setup: &setup,
                cores,
            };
            check_exec_paths(&case, &windows);
        }
    }
}
