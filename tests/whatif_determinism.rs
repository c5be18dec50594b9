//! What-if determinism regression: the same engine configuration must
//! produce a byte-identical causal report no matter how many host
//! workers execute the arm fan-out. The whole point of differential
//! re-simulation is that arm-vs-baseline deltas are attributable to the
//! perturbed knob alone — any dependence on host scheduling would leak
//! into the deltas and poison every sensitivity. This covers mysqld and
//! memcached at small configurations and E16's lock shape at full scale
//! (480 queries per worker).

use whatif::{run_whatif, WhatifConfig, WhatifReport};
use workloads::Workload;

fn cfg(workload: Workload, jobs: usize) -> WhatifConfig {
    let mut c = WhatifConfig::new(workload);
    c.queries = 30;
    c.jobs = jobs;
    c
}

/// Everything result-bearing — the rendered table plus every field that
/// feeds an NDJSON line — in one comparable string.
fn fingerprint(report: &WhatifReport) -> String {
    let mut s = report.render();
    s.push_str(&format!(
        "baseline cycles {} warnings {:?}\n",
        report.baseline_cycles, report.baseline_warnings
    ));
    let sums = |r: &telemetry::RegionSnapshot| -> Vec<u64> {
        (0..whatif::EVENTS.len()).map(|i| r.event_sum(i)).collect()
    };
    for r in &report.baseline.regions {
        s.push_str(&format!(
            "baseline region {} count {} events {:?}\n",
            r.name,
            r.count,
            sums(r)
        ));
    }
    for arm in &report.arms {
        s.push_str(&format!(
            "arm {} {}->{} cycles {} warnings {:?}\n",
            arm.knob, arm.base, arm.scaled, arm.total_cycles, arm.warnings
        ));
        for r in &arm.snapshot.regions {
            s.push_str(&format!(
                "  region {} count {} events {:?}\n",
                r.name,
                r.count,
                sums(r)
            ));
        }
    }
    for r in &report.regions {
        s.push_str(&format!(
            "sens {} base {}x{}: {:?} impact {:?}\n",
            r.region, r.base_count, r.base_cycles, r.sens, r.impact
        ));
    }
    for f in &report.findings {
        s.push_str(&format!("finding {} {} {}\n", f.region, f.kind, f.detail));
    }
    s
}

#[test]
fn whatif_reports_are_byte_identical_across_jobs_1_4() {
    for name in ["mysqld", "memcached", "e16-lock"] {
        let run = |jobs| {
            let c = match name {
                "e16-lock" => bench::e16::lock_config(480, jobs),
                w => cfg(Workload::parse(w).unwrap(), jobs),
            };
            run_whatif(&c, |_, _| {})
        };
        let base = fingerprint(&run(1).expect("jobs=1 runs"));
        let other = fingerprint(&run(4).expect("jobs=4 runs"));
        assert_eq!(
            base, other,
            "{name} whatif fingerprint diverged between --jobs 1 and --jobs 4"
        );
    }
}
