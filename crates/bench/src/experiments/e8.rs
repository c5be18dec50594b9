//! E8 — the Firefox per-task-class characterization.
//!
//! Precise per-task reads expose sharply different microarchitectural
//! signatures per class — the per-class table sampling blurs. Four
//! counters per task (the PMU's full complement): cycles, instructions,
//! LLC misses, branch mispredicts, from which IPC and MPKI derive.

use analysis::metrics::{per_kilo_instruction, ratio};
use analysis::Table;
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use workloads::firefox::{self, FirefoxConfig, TASK_CLASSES};

/// Events characterized per task (all four PMU slots).
pub const EVENTS: [EventKind; 4] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
    EventKind::BranchMisses,
];

/// One task class's profile.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Class name.
    pub class: &'static str,
    /// Task count.
    pub count: u64,
    /// Mean cycles per task.
    pub mean_cycles: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Branch mispredicts per kilo-instruction.
    pub bmiss_pki: f64,
    /// Mean LLC misses per task.
    pub mean_llc: f64,
    /// Mean branch mispredicts per task.
    pub mean_bmiss: f64,
}

/// Runs the characterization.
pub fn run(cfg: &FirefoxConfig, cores: usize) -> SimResult<Vec<E8Row>> {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let run = firefox::run(cfg, &reader, cores, &EVENTS, KernelConfig::default())?;
    let records = run.session.all_records()?;
    Ok(TASK_CLASSES
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let id = run.image.regions.task[i];
            let rows: Vec<_> = records.iter().filter(|(_, r)| r.region == id).collect();
            let n = rows.len() as u64;
            let sum = |idx: usize| rows.iter().map(|(_, r)| r.deltas[idx]).sum::<u64>();
            let denom = n.max(1) as f64;
            let (cycles, instrs, llc, bmiss) = (sum(0), sum(1), sum(2), sum(3));
            E8Row {
                class,
                count: n,
                mean_cycles: cycles as f64 / denom,
                ipc: ratio(instrs, cycles),
                llc_mpki: per_kilo_instruction(llc, instrs),
                bmiss_pki: per_kilo_instruction(bmiss, instrs),
                mean_llc: llc as f64 / denom,
                mean_bmiss: bmiss as f64 / denom,
            }
        })
        .collect())
}

/// Renders the class table.
fn table(rows: &[E8Row]) -> Table {
    let mut t = Table::new(
        "E8: firefox task classes (per-task means, LiMiT precise, 4 counters)",
        &["class", "tasks", "cycles", "IPC", "LLC MPKI", "br-miss PKI"],
    );
    for r in rows {
        t.row(&[
            r.class.to_string(),
            r.count.to_string(),
            format!("{:.0}", r.mean_cycles),
            format!("{:.2}", r.ipc),
            format!("{:.1}", r.llc_mpki),
            format!("{:.1}", r.bmiss_pki),
        ]);
    }
    t
}

/// Fetches a class row.
pub fn row<'a>(rows: &'a [E8Row], class: &str) -> Option<&'a E8Row> {
    rows.iter().find(|r| r.class == class)
}

/// `run e8`: the task-class table.
pub fn render() -> Result<String, String> {
    let rows = run(&FirefoxConfig::default(), 4).map_err(|e| e.to_string())?;
    Ok(format!("{}\n", table(&rows)))
}
