//! E5 — sampling vs. precise counting on the Firefox task mix.
//!
//! Ground truth: LiMiT per-task-region cycle totals. Estimate: PMI samples
//! attributed by PC to the task-class ranges, scaled by the period. The
//! paper's point: the error explodes for short task classes and shrinking
//! the period to compensate costs interrupt overhead.

use analysis::{AccuracyReport, RangeMap, Table};
use baselines::SamplingSetup;
use limit::LimitReader;
use sim_core::SimResult;
use sim_cpu::EventKind;
use sim_os::KernelConfig;
use std::collections::HashMap;
use workloads::firefox::{self, FirefoxConfig, TASK_CLASSES};

/// One sampling-period row.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Sampling period (cycles between samples).
    pub period: u64,
    /// Samples collected.
    pub samples: usize,
    /// PMIs delivered (sampling overhead indicator).
    pub pmis: u64,
    /// Mean absolute relative error across task classes.
    pub mean_abs_err: f64,
    /// Worst-class absolute relative error.
    pub worst_abs_err: f64,
    /// The per-class report.
    pub report: AccuracyReport,
}

/// Runs the comparison for each sampling period.
pub fn run(cfg: &FirefoxConfig, periods: &[u64]) -> SimResult<Vec<E5Row>> {
    // Ground truth once.
    let events = [EventKind::Cycles];
    let reader = LimitReader::with_events(events.to_vec());
    let precise = firefox::run(cfg, &reader, 4, &events, KernelConfig::default())?;
    let records = precise.session.all_records()?;
    let by_region = analysis::precise_cycles_by_region(&records, 0);
    let mut truth: HashMap<String, u64> = HashMap::new();
    for (i, class) in TASK_CLASSES.iter().enumerate() {
        truth.insert(
            format!("fx.task.{class}"),
            by_region
                .get(&precise.image.regions.task[i])
                .copied()
                .unwrap_or(0),
        );
    }

    sim_core::parallel::parmap(periods.to_vec(), |period| {
        let sampler = SamplingSetup::new(EventKind::Cycles, period);
        let sampled = firefox::run(cfg, &sampler, 4, &[], KernelConfig::default())?;
        let samples = sampled.session.kernel.all_samples();
        let map = RangeMap::from_program(&sampled.session.kernel.machine.prog, "fx.task.");
        let estimate = analysis::samples_by_range(&samples, &map, period);
        // Keep only task classes (drop "<other>" from the error calc —
        // the paper's comparison is per attributed class).
        let estimate: HashMap<String, u64> = estimate
            .into_iter()
            .filter(|(k, _)| k.starts_with("fx.task."))
            .collect();
        let report = AccuracyReport::build(&truth, &estimate);
        Ok(E5Row {
            period,
            samples: samples.len(),
            pmis: sampled.report.pmis,
            mean_abs_err: report.mean_abs_error(),
            worst_abs_err: report.worst_abs_error(),
            report,
        })
    })
    .into_iter()
    .collect()
}

/// Renders the period-sweep table.
pub fn sweep_table(rows: &[E5Row]) -> Table {
    let mut t = Table::new(
        "E5: sampling attribution error vs period (firefox task mix)",
        &["period", "samples", "pmis", "mean |err|", "worst |err|"],
    );
    for r in rows {
        t.row(&[
            r.period.to_string(),
            r.samples.to_string(),
            r.pmis.to_string(),
            format!("{:.1}%", r.mean_abs_err * 100.0),
            format!("{:.1}%", r.worst_abs_err * 100.0),
        ]);
    }
    t
}

/// Renders the per-class detail for one row.
pub fn class_table(row: &E5Row) -> Table {
    let mut t = Table::new(
        &format!("E5 detail: per-class attribution at period {}", row.period),
        &["class", "precise cycles", "sampled estimate", "rel. error"],
    );
    for c in &row.report.classes {
        t.row(&[
            c.name.clone(),
            c.truth.to_string(),
            c.estimate.to_string(),
            format!("{:+.1}%", c.relative_error() * 100.0),
        ]);
    }
    t
}
