//! The differential re-simulation engine.
//!
//! One baseline run plus one arm per knob, every arm on the same workload
//! image, the same seed, and the same deterministic scheduler — the only
//! difference between arms is the single scaled cost, so the per-region
//! cycle delta is attributable to that cost. Arms fan out across the
//! bounded host worker pool ([`sim_core::parallel::parmap_with`]) and the
//! diff/ranking phase runs after all arms complete, so results are
//! byte-identical regardless of `--jobs` (pinned by
//! `tests/whatif_determinism.rs`).

use crate::knob::Knob;
use analysis::causal::{attribute, KnobSensitivity};
use analysis::online::Finding;
use analysis::table::{fmt_count, Table};
use limit::harness::SessionBuilder;
use limit::{LimitReader, LogMode, MachineParams, StreamConfig};
use sim_core::parallel::parmap_with;
use sim_cpu::EventKind;
use telemetry::{run_collected, Snapshot};
use workloads::Workload;

/// Counters every arm attaches: cycles feed the sensitivity math,
/// instructions + LLC misses provide context in the report.
pub const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// Event column names matching [`EVENTS`].
pub const EVENT_NAMES: [&str; 3] = ["cycles", "instrs", "llc"];

/// Minimum top-vs-runner-up sensitivity ratio for a causal finding.
const FINDING_DOMINANCE: f64 = 1.5;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct WhatifConfig {
    /// Workload to perturb; every arm runs a copy shaped by `threads`,
    /// `queries` and a stream ring of `capacity`.
    pub workload: Workload,
    /// Guest worker threads.
    pub threads: usize,
    /// Operations per guest worker (queries, commits, requests, tasks).
    pub queries: u64,
    /// Knobs to perturb, one arm each.
    pub knobs: Vec<Knob>,
    /// Factor each arm's knob is scaled by.
    pub scale: f64,
    /// Host worker threads for the arm fan-out.
    pub jobs: usize,
    /// Per-thread telemetry ring capacity (power of two).
    pub capacity: u64,
    /// Drain cadence in guest cycles.
    pub interval: u64,
    /// Baseline machine parameters (arms perturb copies of these).
    pub params: MachineParams,
}

impl WhatifConfig {
    /// Defaults for `workload` in its compact shape
    /// ([`Workload::compact`]; every arm is a full session): 4 threads on
    /// 4 cores, all knobs, scale 4. Per-workload settings go on
    /// `workload` afterwards; the generic ones [`Workload::shape`] sets
    /// come from this config.
    pub fn new(workload: Workload) -> Self {
        WhatifConfig {
            workload: workload.compact(),
            threads: 4,
            queries: 80,
            knobs: Knob::ALL.to_vec(),
            scale: 4.0,
            jobs: sim_core::parallel::default_jobs(),
            capacity: 256,
            interval: 50_000,
            params: MachineParams::new(4),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("--threads must be non-zero".into());
        }
        if self.queries == 0 {
            return Err("--queries must be non-zero".into());
        }
        if self.knobs.is_empty() {
            return Err("at least one knob is required".into());
        }
        if !(self.scale.is_finite()) || self.scale <= 0.0 {
            return Err(format!("--scale must be positive, got {}", self.scale));
        }
        if (self.scale - 1.0).abs() < 1e-9 {
            return Err("--scale 1 perturbs nothing; every sensitivity would be 0/0".into());
        }
        if !self.capacity.is_power_of_two() {
            return Err(format!(
                "--capacity must be a power of two, got {}",
                self.capacity
            ));
        }
        if self.interval == 0 {
            return Err("--interval must be non-zero".into());
        }
        let mut seen = std::collections::HashSet::new();
        for k in &self.knobs {
            if !seen.insert(*k) {
                return Err(format!("duplicate knob {k}"));
            }
        }
        self.params.validate().map_err(|e| e.to_string())?;
        self.arm_workload().0.validate().map_err(|e| e.to_string())
    }

    /// The workload every arm runs, and its guest thread count.
    fn arm_workload(&self) -> (Workload, usize) {
        let mode = LogMode::Stream(StreamConfig::dropping(self.capacity));
        self.workload
            .clone()
            .shape(self.threads, self.queries, None, mode)
    }
}

/// One completed run (the baseline or one arm).
#[derive(Debug, Clone)]
struct ArmRun {
    snapshot: Snapshot,
    total_cycles: u64,
    warnings: Vec<String>,
    wall_ms: f64,
}

/// One perturbation arm's result.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// The perturbed knob.
    pub knob: Knob,
    /// Knob value in the baseline.
    pub base: u64,
    /// Knob value in this arm.
    pub scaled: u64,
    /// The arm's final telemetry snapshot.
    pub snapshot: Snapshot,
    /// The arm's total run cycles.
    pub total_cycles: u64,
    /// Teardown warning lines (printed by the CLI in arm order).
    pub warnings: Vec<String>,
    /// Host wall-clock time of this arm's run in milliseconds. Host-side
    /// only — never printed on stdout or in NDJSON (it would break the
    /// byte-identical-across-`--jobs` guarantee); E16 folds it into
    /// `bench::spans`.
    pub wall_ms: f64,
}

/// One region's sensitivity vector across all arms.
///
/// Two views of the same diff: `sens` is the per-cycle ratio (Δ region
/// cycles / Δ knob cost — "how many times does this region pay the
/// knob?"), `impact` weights that ratio by the knob's baseline cost
/// (Δ region cycles per +100% knob). Every arm scales its knob by the
/// same relative factor, so `impact` is directly comparable across
/// knobs — it is the cycles-attributed measure the causal ranking uses,
/// exactly the equal-relative-perturbation comparison of the
/// sensitivity-analysis literature. A 1-cycle knob paid often and a
/// 200-cycle knob paid rarely can tie on `sens`; `impact` says which
/// one the region's time actually comes from.
#[derive(Debug, Clone)]
pub struct RegionSensitivity {
    /// Region name.
    pub region: String,
    /// Baseline exit count.
    pub base_count: u64,
    /// Baseline cycle sum.
    pub base_cycles: u64,
    /// Per-knob sensitivity ratio (Δ region cycles / Δ knob cost), in
    /// arm order.
    pub sens: Vec<(Knob, f64)>,
    /// Per-knob impact (Δ region cycles per +100% knob cost =
    /// `sens * knob base cost`), in arm order.
    pub impact: Vec<(Knob, f64)>,
}

impl RegionSensitivity {
    /// Knobs ranked by descending impact (ties broken by name so the
    /// ranking is total).
    pub fn ranked(&self) -> Vec<(Knob, f64)> {
        let mut v = self.impact.clone();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.name().cmp(b.0.name()))
        });
        v
    }
}

/// The full causal report.
#[derive(Debug, Clone)]
pub struct WhatifReport {
    /// Workload name.
    pub workload: &'static str,
    /// The scale factor every arm used.
    pub scale: f64,
    /// Baseline final snapshot.
    pub baseline: Snapshot,
    /// Baseline total run cycles.
    pub baseline_cycles: u64,
    /// Baseline teardown warnings.
    pub baseline_warnings: Vec<String>,
    /// Baseline host wall-clock time in milliseconds (host-side only).
    pub baseline_wall_ms: f64,
    /// One result per knob, in configured knob order.
    pub arms: Vec<ArmResult>,
    /// Per-region sensitivities, descending by baseline cycles.
    pub regions: Vec<RegionSensitivity>,
    /// Causal findings (regions with a dominant knob).
    pub findings: Vec<Finding>,
}

impl WhatifReport {
    /// Renders the ranked causal table plus per-region verdict lines —
    /// deterministic, result-bearing stdout.
    pub fn render(&self) -> String {
        let mut headers: Vec<&str> = vec!["region", "count", "base cycles"];
        let knob_names: Vec<&str> = self.arms.iter().map(|a| a.knob.name()).collect();
        headers.extend(&knob_names);
        let mut t = Table::new(
            &format!(
                "causal impact: {} at scale {:.1} (Δ region cycles per +100% knob cost)",
                self.workload, self.scale
            ),
            &headers,
        );
        for r in &self.regions {
            let mut cells = vec![
                r.region.clone(),
                fmt_count(r.base_count),
                fmt_count(r.base_cycles),
            ];
            cells.extend(r.impact.iter().map(|(_, s)| format!("{s:.0}")));
            t.row(&cells);
        }
        let mut out = t.to_string();
        for f in &self.findings {
            out.push_str(&format!(
                "  >> {}: {} — {} ({:.0}% of positive impact)\n",
                f.region,
                f.kind,
                f.detail,
                f.share * 100.0
            ));
        }
        out
    }
}

/// Builds and runs one arm (or the baseline) under `params`.
fn run_arm(cfg: &WhatifConfig, params: &MachineParams, label: &str) -> Result<ArmRun, String> {
    let t0 = std::time::Instant::now();
    let (workload, threads) = cfg.arm_workload();
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let fail = |e: sim_core::SimError| format!("{label}: {e}");
    let builder = SessionBuilder::from_params(params).map_err(fail)?;
    let mut session = workload.build(&reader, builder, &EVENTS).map_err(fail)?;
    // The CLI prints each arm's teardown warnings in arm order afterwards.
    let run = run_collected(&mut session, threads, cfg.interval).map_err(fail)?;
    Ok(ArmRun {
        snapshot: run.snapshot,
        total_cycles: run.report.total_cycles,
        warnings: run.warnings,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Runs the baseline plus one arm per knob and diffs the results.
/// `progress(done, total)` fires from worker threads in completion order —
/// monotone counters only, never result data.
pub fn run_whatif<P>(cfg: &WhatifConfig, progress: P) -> Result<WhatifReport, String>
where
    P: Fn(usize, usize) + Sync,
{
    cfg.validate()?;

    // Arm 0 is the baseline; arm i+1 perturbs knob i. Each arm's params
    // are derived up front so the fan-out is a pure map.
    let mut arm_params: Vec<(String, MachineParams, u64, u64)> = Vec::new();
    arm_params.push(("baseline".to_string(), cfg.params.clone(), 0, 0));
    for knob in &cfg.knobs {
        let mut p = cfg.params.clone();
        let base = knob.base(&cfg.params);
        let scaled = knob.apply(&mut p, cfg.scale);
        if scaled == base {
            return Err(format!(
                "knob {knob} does not move at scale {} (base {base}); \
                 pick a larger scale",
                cfg.scale
            ));
        }
        arm_params.push((knob.name().to_string(), p, base, scaled));
    }

    let total = arm_params.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<Result<ArmRun, String>> = parmap_with(cfg.jobs, (0..total).collect(), |i| {
        let (label, params, _, _) = &arm_params[i];
        let r = run_arm(cfg, params, label);
        progress(
            done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1,
            total,
        );
        r
    });
    let mut runs = Vec::with_capacity(total);
    for r in results {
        runs.push(r?);
    }

    let baseline_run = runs.remove(0);
    let arms: Vec<ArmResult> = cfg
        .knobs
        .iter()
        .zip(runs)
        .zip(arm_params.iter().skip(1))
        .map(|((knob, run), (_, _, base, scaled))| ArmResult {
            knob: *knob,
            base: *base,
            scaled: *scaled,
            snapshot: run.snapshot,
            total_cycles: run.total_cycles,
            warnings: run.warnings,
            wall_ms: run.wall_ms,
        })
        .collect();

    // Diff phase: per-region, per-arm cycle deltas normalized by the
    // knob's cost delta. Regions come out in baseline snapshot order
    // (descending by cycles), which is deterministic.
    let cyc = 0; // EVENTS[0] is Cycles
    let mut regions = Vec::new();
    for base_region in &baseline_run.snapshot.regions {
        let base_cycles = base_region.event_sum(cyc);
        let mut sens = Vec::with_capacity(arms.len());
        let mut impact = Vec::with_capacity(arms.len());
        for arm in &arms {
            let arm_cycles = arm
                .snapshot
                .regions
                .iter()
                .find(|r| r.id == base_region.id)
                .map_or(0, |r| r.event_sum(cyc));
            let dk = arm.scaled as f64 - arm.base as f64;
            let mut dc = arm_cycles as f64 - base_cycles as f64;
            // Probe-cost compensation, as in the paper's overhead
            // subtraction: each region entry/exit pair executes exactly
            // EVENTS.len() rdpmc reads *inside* the measured window, so
            // the rdpmc arm inflates every region by count * reads * dk
            // regardless of what the region itself does. Subtract that
            // known direct term; what remains is the knob's effect on
            // the workload.
            if arm.knob == Knob::RdpmcCost {
                dc -= base_region.count as f64 * EVENTS.len() as f64 * dk;
            }
            let ratio = dc / dk;
            sens.push((arm.knob, ratio));
            impact.push((arm.knob, ratio * arm.base as f64));
        }
        regions.push(RegionSensitivity {
            region: base_region.name.clone(),
            base_count: base_region.count,
            base_cycles,
            sens,
            impact,
        });
    }

    let findings = regions
        .iter()
        .filter(|r| r.base_cycles > 0)
        .filter_map(|r| {
            let impact: Vec<KnobSensitivity> = r
                .impact
                .iter()
                .map(|(k, s)| KnobSensitivity {
                    knob: k.name().to_string(),
                    class: k.class(),
                    sensitivity: *s,
                })
                .collect();
            attribute(&r.region, &impact, FINDING_DOMINANCE)
        })
        .collect();

    Ok(WhatifReport {
        workload: cfg.workload.name(),
        scale: cfg.scale,
        baseline: baseline_run.snapshot,
        baseline_cycles: baseline_run.total_cycles,
        baseline_warnings: baseline_run.warnings,
        baseline_wall_ms: baseline_run.wall_ms,
        arms,
        regions,
        findings,
    })
}
