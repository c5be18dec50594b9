//! The guest instruction set.
//!
//! A small RISC-like ISA, rich enough to express the workloads and — the
//! point of the exercise — the LiMiT counter-read sequence as *multiple
//! discrete instructions* a preemption can land between. PCs are instruction
//! indices, not byte addresses; instruction fetch is not modeled (documented
//! substitution: the paper's claims do not depend on I-cache behaviour).

use crate::regs::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Logical shift right (modulo 64).
    Shr,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// Branch conditions over two registers (unsigned comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (unsigned)
    Lt,
    /// `a >= b` (unsigned)
    Ge,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }
}

/// One guest instruction.
///
/// Branch/jump/call targets are absolute instruction indices; the assembler
/// resolves labels to these at `assemble()` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Instr {
    /// `rd = imm`
    Imm(Reg, u64),
    /// `rd = rs`
    Mov(Reg, Reg),
    /// `rd = rd op rs`
    Alu(AluOp, Reg, Reg),
    /// `rd = rd op imm`
    AluImm(AluOp, Reg, u64),
    /// `n` instructions of straight-line compute, charged as `n` retired
    /// instructions and `n` cycles. Interruptible only at the boundary, so
    /// workload generators keep bursts short (≤ ~100) where preemption
    /// precision matters.
    Burst(u32),
    /// `rd = mem64[rs + off]` (8-byte aligned)
    Load(Reg, Reg, i32),
    /// `mem64[ra + off] = rs` (8-byte aligned)
    Store(Reg, Reg, i32),
    /// Atomic exchange: `tmp = mem64[ra+off]; mem64[ra+off] = rd; rd = tmp`.
    Xchg(Reg, Reg, i32),
    /// Atomic fetch-add: `tmp = mem64[ra+off]; mem64[ra+off] = tmp + rd;
    /// rd = tmp`.
    FetchAdd(Reg, Reg, i32),
    /// Conditional branch: `if cond(ra, rb) pc = target`.
    Br(Cond, Reg, Reg, u32),
    /// Unconditional jump.
    Jmp(u32),
    /// Calls a routine (pushes return PC on the shadow stack).
    Call(u32),
    /// Returns to the PC on top of the shadow stack.
    Ret,
    /// Reads hardware performance counter `idx` into `rd`. Faults unless
    /// the kernel has enabled userspace counter reads on this core.
    Rdpmc(Reg, u8),
    /// Destructive counter read (hardware extension 1): reads counter `idx`
    /// into `rd` and atomically clears it. Faults if the extension is
    /// disabled.
    RdpmcClear(Reg, u8),
    /// Reads the core's cycle timestamp into `rd`.
    Rdtsc(Reg),
    /// Sets the core's counting tag from `rs` (hardware extension 3).
    /// Executes as a no-op when the extension is disabled.
    SetTag(Reg),
    /// Traps into the kernel with the given syscall number. Arguments in
    /// `r0..r5`, result in `r0`.
    Syscall(u64),
    /// No operation (one cycle).
    Nop,
    /// Terminates the executing thread.
    Halt,
}

impl Instr {
    /// `(cycles, retired)` of a *core-local, PMU-silent* instruction —
    /// `Imm`, `Mov`, `Alu`, `AluImm`, `Nop`, `Burst` — or `None` for any
    /// other instruction. These touch only registers, the clock and the
    /// `Cycles`/`Instructions` events, so a straight-line run of them can
    /// be priced once ([`crate::block::BlockMap`]) and executed as one unit.
    #[inline]
    pub fn local_cost(&self, cost: &crate::cost::CostModel) -> Option<(u64, u64)> {
        match *self {
            Instr::Imm(..) | Instr::Mov(..) | Instr::Alu(..) | Instr::AluImm(..) | Instr::Nop => {
                Some((cost.alu, 1))
            }
            Instr::Burst(n) => {
                let n = n.max(1) as u64;
                Some((n, n))
            }
            _ => None,
        }
    }

    /// Whether this instruction is *core-local*: it touches only the
    /// executing core's registers, predictor, shadow stack, clock, and
    /// batched PMU accrual — never guest memory, the cache hierarchy, the
    /// PMU's architected counters, or the kernel. Core-local instructions
    /// commute with every other core's execution, so the block-stepped
    /// executor may run them *ahead* of the cross-core arbitration minimum
    /// without perturbing the memory-system event stream or the order of
    /// kernel-visible events (see `Machine::run_until`). Returns an upper
    /// bound on the instruction's cycle cost (needed to guarantee the step
    /// cannot cross a sleeper wake-up boundary), or `None` for
    /// order-sensitive instructions. Bounds are computed against the
    /// machine's runtime [`crate::cost::CostModel`] so what-if arms with
    /// scaled costs stay correct.
    pub fn run_ahead_bound(&self, cost: &crate::cost::CostModel) -> Option<u64> {
        if let Some((cycles, _)) = self.local_cost(cost) {
            return Some(cycles);
        }
        match *self {
            Instr::Br(..) => Some(cost.branch + cost.branch_miss_penalty),
            Instr::Jmp(..) => Some(cost.branch),
            Instr::Call(..) | Instr::Ret => Some(cost.call),
            Instr::Rdtsc(..) => Some(cost.rdtsc),
            // Memory operations drive the shared cache/coherence model;
            // syscalls and halts enter the kernel; counter reads and tag
            // changes observe/flush architected PMU state. All must execute
            // in exact (clock, core-id) arbitration order.
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Imm(rd, v) => write!(f, "imm   {rd}, {v}"),
            Instr::Mov(rd, rs) => write!(f, "mov   {rd}, {rs}"),
            Instr::Alu(op, rd, rs) => write!(f, "{op:?}   {rd}, {rs}"),
            Instr::AluImm(op, rd, v) => write!(f, "{op:?}i  {rd}, {v}"),
            Instr::Burst(n) => write!(f, "burst {n}"),
            Instr::Load(rd, ra, off) => write!(f, "ld    {rd}, [{ra}{off:+}]"),
            Instr::Store(rs, ra, off) => write!(f, "st    [{ra}{off:+}], {rs}"),
            Instr::Xchg(rd, ra, off) => write!(f, "xchg  {rd}, [{ra}{off:+}]"),
            Instr::FetchAdd(rd, ra, off) => write!(f, "xadd  {rd}, [{ra}{off:+}]"),
            Instr::Br(c, a, b, t) => write!(f, "b{c:?}   {a}, {b} -> {t}"),
            Instr::Jmp(t) => write!(f, "jmp   {t}"),
            Instr::Call(t) => write!(f, "call  {t}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Rdpmc(rd, i) => write!(f, "rdpmc {rd}, pmc{i}"),
            Instr::RdpmcClear(rd, i) => write!(f, "rdpmc.clr {rd}, pmc{i}"),
            Instr::Rdtsc(rd) => write!(f, "rdtsc {rd}"),
            Instr::SetTag(rs) => write!(f, "settag {rs}"),
            Instr::Syscall(nr) => write!(f, "sys   {nr}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Mul.apply(3, 5), 15);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shr.apply(16, 4), 1);
        assert_eq!(AluOp::Shl.apply(1, 64), 1, "shift amount is mod 64");
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(!Cond::Eq.eval(3, 4));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(3, 4));
        assert!(!Cond::Lt.eval(4, 3));
        assert!(Cond::Ge.eval(4, 4));
        // Unsigned: MAX is the largest value, not -1.
        assert!(Cond::Ge.eval(u64::MAX, 0));
    }

    #[test]
    fn display_is_readable() {
        let i = Instr::Load(Reg::R1, Reg::R2, -8);
        assert_eq!(i.to_string(), "ld    r1, [r2-8]");
        assert_eq!(Instr::Syscall(3).to_string(), "sys   3");
    }
}
