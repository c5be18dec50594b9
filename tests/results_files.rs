//! The committed `results/` directory is exactly the gated output of
//! `limit-repro run all`: one `<name>.json` per experiment that `list`
//! prints, plus `run-summary.json`, and nothing else. A stale hand-kept
//! copy or an experiment added without a committed table fails here.

use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn results_hold_one_file_per_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
        .arg("list")
        .output()
        .expect("spawn limit-repro");
    assert!(out.status.success(), "`list` failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    // Experiment lines sit between the header and the `workloads:` line,
    // each as `  <name> <description>`.
    let mut want: BTreeSet<String> = stdout
        .lines()
        .skip_while(|l| *l != "available experiments:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next())
        .map(|name| format!("{name}.json"))
        .collect();
    assert!(want.len() > 1, "no experiments parsed from:\n{stdout}");
    want.insert("run-summary.json".into());

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let got: BTreeSet<String> = std::fs::read_dir(dir)
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
