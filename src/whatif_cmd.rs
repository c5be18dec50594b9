//! `limit-repro whatif <workload>`: causal bottleneck attribution via
//! differential re-simulation.
//!
//! Runs a baseline plus one arm per machine knob (each arm scales exactly
//! one cost, same seed, same deterministic scheduler), diffs per-region
//! telemetry arm-vs-baseline, and prints the ranked sensitivity table with
//! causal findings. Stdout and the NDJSON file are byte-identical across
//! `--jobs` values; progress ticks go to stderr.
//!
//! NDJSON output (`<out-dir>/whatif-<workload>.json`, schema 3): one line
//! per region x arm — the baseline arm first (`"arm": "baseline"`,
//! sensitivity 0), then each knob arm in configured knob order.
//! `check-telemetry` verifies per-arm ordering, that every arm region
//! exists in the baseline, and that every arm line's `base_count` /
//! `base_cycles` agree with the baseline line for that region.

use sim_core::json::Json;
use whatif::{Knob, WhatifConfig, WhatifReport};
use workloads::Workload;

/// Knobs of a whatif run (all have CLI flags).
#[derive(Debug, Clone)]
pub struct WhatifOptions {
    /// Guest worker threads (also the simulated core count).
    pub threads: usize,
    /// Operations per guest worker (queries, commits, requests, tasks).
    pub queries: u64,
    /// Comma-separated knob names; `None` perturbs every knob.
    pub knobs: Option<String>,
    /// Factor each arm's knob is scaled by.
    pub scale: f64,
    /// Host worker threads for the arm fan-out.
    pub jobs: usize,
    /// Per-thread ring capacity (power of two).
    pub capacity: u64,
    /// Telemetry drain cadence in guest cycles.
    pub interval: u64,
    /// Memcached lock-stripe override (1 = one global lock).
    pub stripes: Option<u64>,
    /// Memcached hash-table bucket override.
    pub buckets: Option<u64>,
    /// Memcached in-section atomic RMW override (refcount/stats).
    pub hold_rmws: Option<u64>,
    /// Mysqld buffer-pool size override in bytes.
    pub bufpool: Option<u64>,
    /// Directory receiving `whatif-<workload>.json`.
    pub out_dir: String,
}

impl Default for WhatifOptions {
    fn default() -> Self {
        let base = WhatifConfig::new(Workload::Mysqld(Default::default()));
        WhatifOptions {
            threads: base.threads,
            queries: base.queries,
            knobs: None,
            scale: base.scale,
            jobs: base.jobs,
            capacity: base.capacity,
            interval: base.interval,
            stripes: None,
            buckets: None,
            hold_rmws: None,
            bufpool: None,
            out_dir: crate::OUT_DIR.to_string(),
        }
    }
}

fn to_config(workload: Workload, opts: &WhatifOptions) -> Result<WhatifConfig, String> {
    let mut cfg = WhatifConfig::new(workload);
    cfg.threads = opts.threads;
    cfg.queries = opts.queries;
    cfg.scale = opts.scale;
    cfg.jobs = opts.jobs;
    cfg.capacity = opts.capacity;
    cfg.interval = opts.interval;
    // Workload-specific flags land on the carried config, and only on a
    // workload that has the setting.
    let overrides = [
        ("stripes", opts.stripes),
        ("buckets", opts.buckets),
        ("hold-rmws", opts.hold_rmws),
        ("bufpool", opts.bufpool),
    ];
    for (flag, value) in overrides {
        let Some(value) = value else { continue };
        let slot = match (&mut cfg.workload, flag) {
            (Workload::Memcached(c), "stripes") => &mut c.stripes,
            (Workload::Memcached(c), "buckets") => &mut c.buckets,
            (Workload::Memcached(c), "hold-rmws") => &mut c.hold_rmws,
            (Workload::Mysqld(c), "bufpool") => &mut c.bufpool_bytes,
            (w, _) => return Err(format!("--{flag} does not apply to workload {}", w.name())),
        };
        *slot = value;
    }
    cfg.params = limit::MachineParams::new(opts.threads.clamp(1, limit::params::MAX_CORES));
    if let Some(list) = &opts.knobs {
        let mut knobs = Vec::new();
        for name in list.split(',').filter(|s| !s.is_empty()) {
            let knob = Knob::parse(name).ok_or_else(|| {
                let known: Vec<&str> = Knob::ALL.iter().map(|k| k.name()).collect();
                format!("unknown knob {name:?} (known: {})", known.join(", "))
            })?;
            knobs.push(knob);
        }
        cfg.knobs = knobs;
    }
    Ok(cfg)
}

/// One schema-3 NDJSON line: a region's counters under one arm, paired
/// with its baseline values and the computed sensitivity.
#[allow(clippy::too_many_arguments)]
fn region_line(
    workload: &str,
    arm: &str,
    scale: f64,
    knob_base: u64,
    knob_scaled: u64,
    region: &str,
    count: u64,
    cycles: u64,
    base_count: u64,
    base_cycles: u64,
    sensitivity: f64,
    impact: f64,
) -> Json {
    Json::object()
        .set("schema", 3u64)
        .set("workload", workload)
        .set("arm", arm)
        .set("scale", scale)
        .set("knob_base", knob_base)
        .set("knob_scaled", knob_scaled)
        .set("region", region)
        .set("count", count)
        .set("cycles", cycles)
        .set("base_count", base_count)
        .set("base_cycles", base_cycles)
        .set("sensitivity", sensitivity)
        .set("impact", impact)
}

/// The NDJSON body: baseline region lines (snapshot order), then each
/// arm's region lines in configured knob order.
fn render_ndjson(report: &WhatifReport) -> String {
    let cyc = 0; // EVENTS[0] is Cycles
    let mut out = String::new();
    for r in &report.baseline.regions {
        let cycles = r.event_sum(cyc);
        let line = region_line(
            report.workload,
            "baseline",
            report.scale,
            0,
            0,
            &r.name,
            r.count,
            cycles,
            r.count,
            cycles,
            0.0,
            0.0,
        );
        out.push_str(&line.compact());
        out.push('\n');
    }
    for (ai, arm) in report.arms.iter().enumerate() {
        for r in &arm.snapshot.regions {
            // Baseline values and the sensitivity come from the diff
            // phase; a region the baseline never saw (impossible under
            // the same seed, and `check-telemetry` would reject it)
            // falls back to zeros.
            let (base_count, base_cycles, sens, impact) = report
                .regions
                .iter()
                .find(|rs| rs.region == r.name)
                .map_or((0, 0, 0.0, 0.0), |rs| {
                    (
                        rs.base_count,
                        rs.base_cycles,
                        rs.sens[ai].1,
                        rs.impact[ai].1,
                    )
                });
            let line = region_line(
                report.workload,
                arm.knob.name(),
                report.scale,
                arm.base,
                arm.scaled,
                &r.name,
                r.count,
                r.event_sum(cyc),
                base_count,
                base_cycles,
                sens,
                impact,
            );
            out.push_str(&line.compact());
            out.push('\n');
        }
    }
    out
}

/// Runs the what-if engine and writes `<out-dir>/whatif-<workload>.json`.
pub fn run(workload: &str, opts: &WhatifOptions) -> Result<(), String> {
    let cfg = to_config(Workload::parse(workload)?, opts)?;
    eprintln!(
        "whatif: {} ({} threads x {} queries), {} knobs at scale {:.1}, {} host jobs",
        cfg.workload.name(),
        cfg.threads,
        cfg.queries,
        cfg.knobs.len(),
        cfg.scale,
        cfg.jobs,
    );

    let report = whatif::run_whatif(&cfg, |done, total| {
        eprintln!("whatif: {done}/{total} arms complete");
    })?;

    print!("{}", report.render());

    // Teardown warnings print in arm order (baseline first), so this
    // block is deterministic too.
    let arm_warnings: usize = report.arms.iter().map(|a| a.warnings.len()).sum();
    if report.baseline_warnings.is_empty() && arm_warnings == 0 {
        println!("\nteardown warnings: none — every arm tore down clean");
    } else {
        println!(
            "\nteardown warnings: {} total",
            report.baseline_warnings.len() + arm_warnings
        );
        for w in &report.baseline_warnings {
            println!("  baseline: {w}");
        }
        for arm in &report.arms {
            for w in &arm.warnings {
                println!("  {}: {w}", arm.knob);
            }
        }
    }

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir))?;
    let path = format!("{}/whatif-{}.json", opts.out_dir, report.workload);
    std::fs::write(&path, render_ndjson(&report))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    println!(
        "\nwhatif complete: {} arms, {} regions, {} findings",
        report.arms.len(),
        report.regions.len(),
        report.findings.len()
    );
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_flags_apply_only_where_the_setting_exists() {
        let opts = WhatifOptions {
            stripes: Some(2),
            ..Default::default()
        };
        let cfg = to_config(Workload::parse("memcached").unwrap(), &opts).unwrap();
        assert!(matches!(cfg.workload, Workload::Memcached(ref c) if c.stripes == 2));

        let misfits = [
            (
                "mysqld",
                "stripes",
                WhatifOptions {
                    stripes: Some(3),
                    ..Default::default()
                },
            ),
            (
                "mysqld",
                "buckets",
                WhatifOptions {
                    buckets: Some(64),
                    ..Default::default()
                },
            ),
            (
                "proxy",
                "hold-rmws",
                WhatifOptions {
                    hold_rmws: Some(4),
                    ..Default::default()
                },
            ),
            (
                "memcached",
                "bufpool",
                WhatifOptions {
                    bufpool: Some(1 << 20),
                    ..Default::default()
                },
            ),
        ];
        for (workload, flag, opts) in misfits {
            let err = to_config(Workload::parse(workload).unwrap(), &opts).unwrap_err();
            assert_eq!(
                err,
                format!("--{flag} does not apply to workload {workload}")
            );
        }
    }
}
