//! The committed `results/` directory is exactly the gated output of
//! `limit-repro run all`: one `<name>.json` per row of
//! `bench::experiments::ALL`, plus `run-summary.json`, and nothing else.
//! Every experiment must regenerate its file byte for byte. A stale
//! hand-kept copy, an experiment added without a committed table, or a
//! change to any table fails here.

use bench::experiments::ALL;
use sim_core::parallel::{default_jobs, parmap_with};
use std::collections::BTreeSet;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

#[test]
fn results_hold_one_file_per_experiment() {
    let mut want: BTreeSet<String> = ALL.iter().map(|e| format!("{}.json", e.name)).collect();
    want.insert("run-summary.json".into());

    let got: BTreeSet<String> = std::fs::read_dir(RESULTS)
        .expect("read results/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(got, want, "results/ is not one file per experiment");
}

/// `run all --check results/` in process: every experiment runs and is
/// compared with its committed file through the same check the CLI uses.
/// The failure names every experiment that errored or differs.
#[test]
fn results_regenerate_byte_for_byte() {
    let runs = parmap_with(default_jobs(), ALL.iter().collect(), |exp| (exp, exp.run()));
    let failures: Vec<String> = runs
        .iter()
        .filter_map(|(exp, output)| exp.check(output, RESULTS).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
