//! Guest ISA and multicore CPU model with a faithful performance-monitoring
//! unit (PMU).
//!
//! This crate is the hardware half of the reproduction substrate. Guest
//! workloads are small programs in a custom RISC-like instruction set
//! ([`isa`]), built with the assembler ([`asm`]), and executed one
//! instruction at a time by per-core engines ([`core`]). Executing at
//! instruction granularity is what makes the reproduction honest: the OS
//! layer (crate `sim-os`) can preempt a thread or deliver a counter-overflow
//! interrupt *between any two guest instructions*, so the multi-instruction
//! LiMiT counter-read sequence is genuinely racy, exactly as on real
//! hardware.
//!
//! The PMU ([`pmu`]) models an IA32-style unit: a handful of programmable
//! counters with event selectors, user/kernel mode filtering, configurable
//! counter width (default 48 bits), overflow interrupts, and an `rdpmc`
//! instruction that faults unless userspace access has been enabled. It also
//! implements the paper's three proposed hardware enhancements (destructive
//! reads, self-virtualizing 64-bit counters with memory spill, and
//! tag-filtered counting), all off by default.

pub mod asm;
pub mod block;
pub mod core;
pub mod cost;
pub mod events;
pub mod gmem;
pub mod isa;
pub mod machine;
pub mod oracle;
pub mod pmu;
pub mod prog;
pub mod regs;
pub mod trace;
pub mod verify;

pub use crate::core::{Core, Mode, Step, Trap};
pub use asm::Asm;
pub use block::{BlockMap, LocalRun};
pub use cost::CostModel;
pub use events::EventKind;
pub use gmem::{GuestMem, MemLayout};
pub use isa::{AluOp, Cond, Instr};
pub use machine::{Machine, MachineConfig, RunExit, RunLimits};
pub use oracle::{Divergence, Oracle};
pub use pmu::{CounterCfg, Pmu, PmuConfig};
pub use prog::{Label, Program};
pub use regs::Reg;
pub use trace::{Trace, TraceEntry};
pub use verify::{verify, Issue};
