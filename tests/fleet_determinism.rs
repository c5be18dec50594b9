//! Fleet determinism regression: the same fleet seed must produce a
//! byte-identical fleet aggregate, queue replay, and finding set no
//! matter how many host workers execute it. This is the contract that
//! makes fleet results comparable across machines and CI runners — any
//! dependence on host scheduling is a bug, caught here.

use fleet::{run_fleet, FleetConfig, EVENT_NAMES};

fn cfg(jobs: usize) -> FleetConfig {
    FleetConfig {
        instances: 12,
        threads: 2,
        queries: 10,
        jobs,
        ..FleetConfig::default()
    }
}

/// Everything result-bearing, rendered to one comparable string.
fn fingerprint(report: &fleet::FleetReport) -> String {
    let mut s = report.fleet.render(&EVENT_NAMES);
    for f in &report.findings {
        s.push_str(&f.to_string());
        s.push('\n');
    }
    for inst in &report.instances {
        s.push_str(&format!(
            "instance {} seed {:#x} service {} appended {} drained {}\n",
            inst.index,
            inst.seed,
            inst.service_cycles,
            inst.snapshot.appended,
            inst.snapshot.drained
        ));
    }
    s.push_str(&format!(
        "arrivals {:?}\nsojourn {:?}\nutil {:.6} wait {:.6} depth {}\n",
        report.arrivals,
        report.queue.sojourn,
        report.queue.stats.utilization,
        report.queue.stats.mean_wait,
        report.queue.stats.max_queue_depth
    ));
    s
}

#[test]
fn fleet_results_are_byte_identical_across_jobs_1_4_8() {
    let base = fingerprint(&run_fleet(&cfg(1), |_, _| {}).expect("jobs=1 fleet runs"));
    for jobs in [4, 8] {
        let other = fingerprint(&run_fleet(&cfg(jobs), |_, _| {}).expect("fleet runs"));
        assert_eq!(
            base, other,
            "fleet fingerprint diverged between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn different_fleet_seeds_produce_different_fleets() {
    let a = run_fleet(&cfg(2), |_, _| {}).unwrap();
    let mut other = cfg(2);
    other.seed ^= 0xDEAD_BEEF;
    let b = run_fleet(&other, |_, _| {}).unwrap();
    assert_ne!(a.arrivals, b.arrivals, "arrival timeline ignored the seed");
    assert_ne!(
        a.instances[0].seed, b.instances[0].seed,
        "instance seeds ignored the fleet seed"
    );
}
