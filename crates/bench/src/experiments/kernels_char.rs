//! Suite characterization: the six archetypal kernels profiled with the
//! full event taxonomy (two counter sets per kernel — the PMU has four
//! slots, as on real hardware), plus TLB and prefetcher ablations.

use analysis::metrics::{per_kilo_instruction, ratio};
use analysis::Table;
use sim_core::SimResult;
use sim_cpu::{EventKind, MachineConfig};
use sim_mem::{HierarchyConfig, TlbConfig};
use std::fmt::Write as _;
use workloads::suite::{self, KERNEL_NAMES};

/// Full characterization of one kernel.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Total cycles.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1D misses per kilo-instruction.
    pub l1_mpki: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Branch mispredicts per kilo-instruction.
    pub bmiss_pki: f64,
    /// Data-TLB misses per kilo-instruction.
    pub tlb_mpki: f64,
}

fn machine(prefetch: u32) -> MachineConfig {
    MachineConfig::new(1).with_hierarchy(HierarchyConfig {
        l2_prefetch_depth: prefetch,
        tlb: Some(TlbConfig::default()),
        ..HierarchyConfig::default()
    })
}

/// Profiles every kernel (two runs each to cover six events with four
/// counters; runs are deterministic so the pairs compose exactly).
fn run(iters: u64, ws_bytes: u64) -> SimResult<Vec<KernelRow>> {
    let set_a = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::L1dMisses,
        EventKind::BranchMisses,
    ];
    let set_b = [
        EventKind::LlcMisses,
        EventKind::TlbMisses,
        EventKind::Loads,
        EventKind::Stores,
    ];
    KERNEL_NAMES
        .iter()
        .map(|&name| {
            let a = suite::run_kernel(name, &set_a, machine(0), iters, ws_bytes)?;
            let b = suite::run_kernel(name, &set_b, machine(0), iters, ws_bytes)?;
            let (cycles, instrs, l1, bmiss) = (a.totals[0], a.totals[1], a.totals[2], a.totals[3]);
            let (llc, tlb) = (b.totals[0], b.totals[1]);
            Ok(KernelRow {
                name,
                cycles,
                ipc: ratio(instrs, cycles),
                l1_mpki: per_kilo_instruction(l1, instrs),
                llc_mpki: per_kilo_instruction(llc, instrs),
                bmiss_pki: per_kilo_instruction(bmiss, instrs),
                tlb_mpki: per_kilo_instruction(tlb, instrs),
            })
        })
        .collect()
}

/// The prefetcher ablation: L2-miss counts for the memory kernels at
/// several prefetch depths. Returns `(kernel, depth, l2_misses)` rows.
fn prefetch_ablation(iters: u64, ws_bytes: u64) -> SimResult<Vec<(&'static str, u32, u64)>> {
    let events = [EventKind::L2Misses];
    let mut out = Vec::new();
    for &name in &["stream_copy", "stride_walk", "random_access"] {
        for depth in [0u32, 2, 4] {
            let p = suite::run_kernel(name, &events, machine(depth), iters, ws_bytes)?;
            out.push((name, depth, p.totals[0]));
        }
    }
    Ok(out)
}

/// Renders the characterization table.
fn table(rows: &[KernelRow]) -> Table {
    let mut t = Table::new(
        "suite characterization (solo, TLB on, prefetch off)",
        &[
            "kernel",
            "cycles",
            "IPC",
            "L1 MPKI",
            "LLC MPKI",
            "br-miss PKI",
            "dTLB MPKI",
        ],
    );
    for r in rows {
        t.row(&[
            r.name.to_string(),
            analysis::table::fmt_count(r.cycles),
            format!("{:.2}", r.ipc),
            format!("{:.1}", r.l1_mpki),
            format!("{:.1}", r.llc_mpki),
            format!("{:.1}", r.bmiss_pki),
            format!("{:.1}", r.tlb_mpki),
        ]);
    }
    t
}

/// Renders the prefetch ablation table.
fn prefetch_table(rows: &[(&'static str, u32, u64)]) -> Table {
    let mut t = Table::new(
        "L2 next-line prefetcher ablation (L2 misses)",
        &["kernel", "depth", "l2 misses"],
    );
    for &(name, depth, misses) in rows {
        t.row(&[
            name.to_string(),
            depth.to_string(),
            analysis::table::fmt_count(misses),
        ]);
    }
    t
}

/// `run kernels`: the suite characterization and the prefetcher ablation.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run(20_000, 1 << 20).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    let ab = prefetch_ablation(20_000, 1 << 20).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", prefetch_table(&ab));
    Ok(w)
}
