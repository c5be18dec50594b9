//! End-to-end and per-layer host benchmark of the LiMiT reproduction.
//!
//! ```text
//! limit-bench run [--workload NAME]... [--seed S] [--seconds N]
//!                 [--trace 0|1] [--scale F] [--out FILE]
//! limit-bench compare --parent FILE... --change FILE...
//! limit-bench expect
//! ```
//!
//! `run` prints each workload's metrics and, as the last line, one JSON
//! result object; it exits nonzero when any output fails its check.
//! Without `--trace` it makes both passes; `--trace 0` makes only the
//! untraced pass (end-to-end metrics), `--trace 1` only the traced one
//! (per-layer metrics). `compare` judges two sets of `--out` files against
//! the declared bounds; `expect` prints `expected.json` for the default
//! seed. See README.md.

mod compare;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::Passes;
use sim_core::json::Json;
use spec::Spec;
use std::process::ExitCode;
use workloads::{Params, Workload, DEFAULT_SEED};

/// Exact fingerprints of one round of each workload at the default seed
/// and full scale.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Host worker threads: the fleet and trust workloads never load more
/// than two cores.
const MAX_WORKERS: usize = 2;

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    passes: Passes,
    scale: f64,
    out: Option<String>,
}

fn usage() -> String {
    "usage: limit-bench run [--workload NAME]... [--seed S] [--seconds N] \
     [--trace 0|1] [--scale F] [--out FILE]\n       \
     limit-bench compare --parent FILE... --change FILE...\n       \
     limit-bench expect"
        .to_string()
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        passes: Passes::Both,
        scale: 1.0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads.push(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} ({})", names.join("|"))
                })?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => a.seconds = number(value()?)?,
            "--scale" => a.scale = number(value()?)?,
            "--trace" => {
                a.passes = match value()?.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
        return Err(format!("--seconds must be in 0..=3600, got {}", a.seconds));
    }
    if !(a.scale > 0.0 && a.scale <= 100.0) {
        return Err(format!("--scale must be in (0, 100], got {}", a.scale));
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

/// `git describe` of the source tree, when it is a git checkout.
fn revision() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["-C", root, "describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Runs the workloads `args` select and checks them against `expected`
/// (the contents of `expected.json`); `Ok(false)` when any output failed
/// its check.
fn cmd_run(args: &[String], expected: &Json) -> Result<bool, String> {
    let spec = Spec::load();
    let a = parse_run(args, &spec)?;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let p = Params {
        seed: a.seed,
        scale: a.scale,
        workers: host_cores.min(MAX_WORKERS),
    };
    let rev = revision();
    println!(
        "limit-bench {rev}: seed {} scale {} seconds {} host_cores {host_cores} workers {}",
        p.seed, p.scale, a.seconds, p.workers
    );
    // The floor probes do not depend on the workload: one set serves
    // every traced pass.
    let probes = (a.passes != Passes::Untraced)
        .then(|| crate::probes::run(p.scale).map_err(|e| format!("floor probe failed: {e}")));
    let mut all_correct = true;
    for &w in &a.workloads {
        let reference = p
            .is_reference()
            .then(|| expected.get("workloads").and_then(|e| e.get(w.name())))
            .flatten();
        let mut passes = Vec::new();
        if a.passes != Passes::Traced {
            passes.push(("untraced", run::untraced(w, &p, a.seconds, reference)));
        }
        if a.passes != Passes::Untraced {
            let probes = probes.as_ref().expect("traced passes run the probes");
            passes.push(("traced", run::traced(w, &p, a.seconds, reference, probes)));
        }
        let mut line = run::PassResult::default();
        for (pass, res) in passes {
            for e in &res.errors {
                eprintln!("error: {e}");
            }
            for (name, v) in &res.metrics {
                let unit = spec.metric(name).map_or("?", |m| m.unit.as_str());
                println!("{:<16} {:<36} {v:>16.6} {unit}", w.name(), name);
            }
            println!(
                "{:<16} {pass} pass: {} rounds, {} ops attempted, {} failed, {} latency samples",
                w.name(),
                res.rounds,
                res.attempted,
                res.failed,
                res.op_samples
            );
            if let Some(path) = &a.out {
                let record = Json::object()
                    .set("workload", w.name())
                    .set("pass", pass)
                    .set("seed", p.seed)
                    .set("scale", p.scale)
                    .set("seconds", a.seconds)
                    .set("host_cores", host_cores as u64)
                    .set("workers", p.workers as u64)
                    .set("rev", rev.as_str())
                    .set("rounds", res.rounds as u64)
                    .set("op_samples", res.op_samples as u64)
                    .set("result", res.to_json(&spec));
                append_line(path, &record.compact())?;
            }
            line.attempted += res.attempted;
            line.failed += res.failed;
            line.errors.extend(res.errors);
            line.metrics.extend(res.metrics);
        }
        // Layers a workload does not exercise report 0; an end-to-end
        // metric is missing only when its pass failed outright.
        for name in declared(&spec, a.passes) {
            if !line.metrics.contains_key(name) {
                if spec.end_to_end.iter().any(|m| &m.name == name) {
                    line.errors
                        .push(format!("{}: no value for {name}", w.name()));
                } else {
                    line.metrics.insert(name.clone(), 0.0);
                }
            }
        }
        all_correct &= line.correct();
        println!("{}", line.to_json(&spec).compact());
    }
    Ok(all_correct)
}

/// The metric names a run with `passes` must print.
fn declared(spec: &Spec, passes: Passes) -> impl Iterator<Item = &String> {
    let e2e = (passes != Passes::Traced).then_some(&spec.end_to_end);
    let layer = (passes != Passes::Untraced).then_some(&spec.per_layer);
    e2e.into_iter()
        .chain(layer)
        .flat_map(|list| list.iter().map(|m| &m.name))
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
}

/// Prints `expected.json`: one untraced round of each workload at the
/// default seed and full scale.
fn cmd_expect() -> Result<bool, String> {
    let p = Params {
        seed: DEFAULT_SEED,
        scale: 1.0,
        workers: MAX_WORKERS,
    };
    let mut doc = Json::object();
    for w in Workload::ALL {
        let r = w.round(&p, None)?;
        if !r.violations.is_empty() {
            return Err(format!("{}: {}", w.name(), r.violations.join("; ")));
        }
        doc = doc.set(w.name(), r.fingerprint);
    }
    print!(
        "{}",
        Json::object()
            .set("seed", DEFAULT_SEED)
            .set("scale", 1.0)
            .set("workloads", doc)
            .pretty()
    );
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Json::parse(EXPECTED_JSON)
            .map_err(|e| format!("expected.json: {e}"))
            .and_then(|expected| cmd_run(&args[1..], &expected)),
        Some("compare") => compare::cmd(&args[1..], &Spec::load()),
        Some("expect") if args.len() == 1 => cmd_expect(),
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_fingerprint_fails_the_run() {
        // One mysqld-stream round at the default seed and scale, where
        // the committed fingerprints apply, checked against a copy with
        // one count changed.
        let corrupted = EXPECTED_JSON.replacen("\"guest_instrs\": ", "\"guest_instrs\": 1", 1);
        assert_ne!(corrupted, EXPECTED_JSON);
        let expected = Json::parse(&corrupted).unwrap();
        let reference = expected
            .get("workloads")
            .and_then(|w| w.get("mysqld-stream"))
            .unwrap();
        let p = Params {
            seed: DEFAULT_SEED,
            scale: 1.0,
            workers: 1,
        };
        let res = run::untraced(Workload::MysqldStream, &p, 0.0, Some(reference));
        assert!(!res.correct());
        assert!(res.attempted > 0);
        assert_eq!(res.failed, res.attempted);
        assert!(res.errors.iter().any(|e| e.contains("fingerprint mismatch")));

        // The whole run reports the failure, which `main` turns into
        // exit status 1.
        let args: Vec<String> = ["--workload", "mysqld-stream", "--seconds", "0", "--trace", "0"]
            .map(String::from)
            .to_vec();
        assert_eq!(cmd_run(&args, &expected), Ok(false));
        let pristine = Json::parse(EXPECTED_JSON).unwrap();
        assert_eq!(cmd_run(&args, &pristine), Ok(true));
    }
}
