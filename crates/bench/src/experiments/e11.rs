//! E11 (extension) — co-location interference, measured precisely.
//!
//! The abstract draws "implications for computer architects in the cloud
//! era"; the canonical cloud problem is consolidated tenants fighting over
//! the shared LLC. This experiment runs the Firefox-like application twice
//! on the *same* machine image — once alone, once co-located with the
//! Apache-like server streaming an LLC-sized document set — and compares
//! per-task-class cycles and LLC misses. Per-task precise reads make the
//! interference attributable to specific victim code, which aggregate or
//! sampled measurement cannot do at this granularity.

use analysis::Table;
use limit::harness::SessionBuilder;
use limit::report::Regions;
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::{Asm, EventKind, MemLayout};
use sim_os::KernelConfig;
use std::fmt::Write as _;
use workloads::firefox::{FirefoxConfig, TASK_CLASSES};
use workloads::{apache, firefox};

/// Events measured per task.
pub const EVENTS: [EventKind; 2] = [EventKind::Cycles, EventKind::LlcMisses];

/// One task class's alone-vs-co-located comparison.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Task class.
    pub class: &'static str,
    /// Tasks measured (alone run).
    pub count: u64,
    /// Mean cycles per task, alone.
    pub alone_cycles: f64,
    /// Mean cycles per task, co-located.
    pub coloc_cycles: f64,
    /// Mean LLC misses per task, alone.
    pub alone_llc: f64,
    /// Mean LLC misses per task, co-located.
    pub coloc_llc: f64,
}

impl E11Row {
    /// Cycle inflation factor from co-location.
    pub fn slowdown(&self) -> f64 {
        if self.alone_cycles == 0.0 {
            1.0
        } else {
            self.coloc_cycles / self.alone_cycles
        }
    }
}

/// Per-class (count, mean cycles, mean LLC misses) rows.
type ClassStats = Vec<(u64, f64, f64)>;

fn build_and_run(
    fx_cfg: &FirefoxConfig,
    ap_cfg: &apache::ApacheConfig,
    colocated: bool,
    cores: usize,
) -> SimResult<(ClassStats, u64)> {
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let mut layout = MemLayout::default();
    let mut regions = Regions::new();
    let mut asm = Asm::new();
    let fx = firefox::emit(&mut asm, &mut layout, &mut regions, &reader, fx_cfg)?;
    let ap = apache::emit(&mut asm, &mut layout, &mut regions, &reader, ap_cfg)?;
    let mut session = SessionBuilder::new(cores)
        .events(&EVENTS)
        .with_layout(layout)
        .kernel_config(KernelConfig::default())
        .build(asm)?;
    session.regions = regions;

    let fx_main = session.spawn_instrumented(fx.entry_main, &[fx_cfg.seed])?;
    for h in 0..fx_cfg.helpers {
        session.spawn_instrumented(fx.entry_helper, &[h as u64])?;
    }
    let mut ap_tids = Vec::new();
    if colocated {
        let mut seed = sim_core::DetRng::new(ap_cfg.seed);
        for _ in 0..ap_cfg.workers {
            let s = seed.next_u64();
            ap_tids.push(session.spawn_instrumented(ap.entry, &[s])?);
        }
    }
    // Measure the foreground application only: stop when the firefox main
    // thread exits, however long the background server would keep going.
    let report = session.run_until_exit(fx_main)?;

    // Per firefox task class: (count, mean cycles, mean llc).
    let records = session.records(fx_main)?;
    let stats = fx
        .regions
        .task
        .iter()
        .map(|&id| {
            let rows: Vec<_> = records.iter().filter(|r| r.region == id).collect();
            let n = rows.len() as u64;
            let denom = n.max(1) as f64;
            let cycles: u64 = rows.iter().map(|r| r.deltas[0]).sum();
            let llc: u64 = rows.iter().map(|r| r.deltas[1]).sum();
            (n, cycles as f64 / denom, llc as f64 / denom)
        })
        .collect();
    Ok((stats, report.total_cycles))
}

/// Runs alone and co-located, same image, same seeds.
pub fn run(cores: usize) -> SimResult<Vec<E11Row>> {
    // The victim must be LLC-capacity-sensitive for co-location to matter:
    // working sets that fit the LLC and are re-visited across tasks, so
    // that alone they warm up and co-located they get evicted between
    // visits. (Compulsory-miss-dominated working sets see no interference
    // — the uninteresting case.)
    // 4 MiB working sets: far beyond the 256 KiB L2 (so the LLC is the
    // level that matters) but within the 8 MiB LLC (so alone-runs warm
    // it); enough tasks that lines are re-visited.
    let fx_cfg = FirefoxConfig {
        tasks: 3_000,
        dom_bytes: 4 << 20,
        heap_bytes: 4 << 20,
        fb_bytes: 512 << 10,
        ..FirefoxConfig::default()
    };
    let ap_cfg = apache::ApacheConfig {
        workers: 5,
        requests_per_worker: 10_000, // effectively "runs the whole time"
        docs_bytes: 16 << 20,        // 2x the LLC: maximal cache pressure
        ..apache::ApacheConfig::default()
    };
    let (alone, _) = build_and_run(&fx_cfg, &ap_cfg, false, cores)?;
    let (coloc, _) = build_and_run(&fx_cfg, &ap_cfg, true, cores)?;
    Ok(TASK_CLASSES
        .iter()
        .enumerate()
        .map(|(i, &class)| E11Row {
            class,
            count: alone[i].0,
            alone_cycles: alone[i].1,
            coloc_cycles: coloc[i].1,
            alone_llc: alone[i].2,
            coloc_llc: coloc[i].2,
        })
        .collect())
}

/// Renders the interference table.
fn table(rows: &[E11Row]) -> Table {
    let mut t = Table::new(
        "E11: co-location interference per firefox task class (alone vs + apache)",
        &[
            "class",
            "tasks",
            "cycles alone",
            "cycles coloc",
            "slowdown",
            "llc alone",
            "llc coloc",
        ],
    );
    for r in rows {
        t.row(&[
            r.class.to_string(),
            r.count.to_string(),
            format!("{:.0}", r.alone_cycles),
            format!("{:.0}", r.coloc_cycles),
            format!("{:.2}x", r.slowdown()),
            format!("{:.1}", r.alone_llc),
            format!("{:.1}", r.coloc_llc),
        ]);
    }
    t
}

/// Fetches a class row.
pub fn row<'a>(rows: &'a [E11Row], class: &str) -> Option<&'a E11Row> {
    rows.iter().find(|r| r.class == class)
}

/// `run e11`: the interference table and the worst-hit class.
pub fn render() -> Result<String, String> {
    let mut w = String::new();
    let rows = run(8).map_err(|e| e.to_string())?;
    let _ = writeln!(w, "{}", table(&rows));
    if let Some(worst) = rows
        .iter()
        .filter(|r| r.count > 0)
        .max_by(|a, b| a.slowdown().total_cmp(&b.slowdown()))
    {
        let _ = writeln!(
            w,
            "Worst-hit class: `{}` at {:.2}x (LLC misses {:.1} -> {:.1} per task).",
            worst.class,
            worst.slowdown(),
            worst.alone_llc,
            worst.coloc_llc
        );
    }
    Ok(w)
}
