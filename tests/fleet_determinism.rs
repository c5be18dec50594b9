//! Fleet determinism regression: the same fleet seed must produce a
//! byte-identical fleet aggregate, queue replay, and finding set no
//! matter how many host workers execute it. This is the contract that
//! makes fleet results comparable across machines and CI runners — any
//! dependence on host scheduling is a bug, caught here.

use fleet::{run_fleet, FleetConfig, EVENT_NAMES};

fn sized(instances: usize, queries: u64, jobs: usize) -> FleetConfig {
    FleetConfig {
        instances,
        threads: 2,
        queries,
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

/// A 12-instance fleet on 1, 4 and 8 workers, and a 96-instance fleet
/// (2 threads x 25 queries each) on 1 and 2.
#[test]
fn fleet_results_are_byte_identical_across_jobs_1_4_8() {
    for (instances, queries, jobs) in [(12, 10, &[4, 8][..]), (96, 25, &[2][..])] {
        let run = |jobs| run_fleet(&sized(instances, queries, jobs), |_, _| {});
        let base = fingerprint(&run(1).expect("jobs=1 fleet runs"));
        for &jobs in jobs {
            let other = fingerprint(&run(jobs).expect("fleet runs"));
            assert_eq!(
                base, other,
                "{instances}-instance fleet fingerprint diverged between --jobs 1 and --jobs {jobs}"
            );
        }
    }
}

#[test]
fn different_fleet_seeds_produce_different_fleets() {
    let a = run_fleet(&sized(12, 10, 2), |_, _| {}).unwrap();
    let mut other = sized(12, 10, 2);
    other.seed ^= 0xDEAD_BEEF;
    let b = run_fleet(&other, |_, _| {}).unwrap();
    assert_ne!(a.arrivals, b.arrivals, "arrival timeline ignored the seed");
    assert_ne!(
        a.instances[0].seed, b.instances[0].seed,
        "instance seeds ignored the fleet seed"
    );
}
