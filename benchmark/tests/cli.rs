//! End-to-end checks of the `limit-bench` binary.

use sim_core::json::Json;
use std::collections::BTreeSet;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_limit-bench");
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .arg("run")
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// Every result line (one per workload) of a run's stdout.
fn results(out: &Output) -> Vec<Json> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect()
}

fn last_line(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().expect("some output")).expect("last line is JSON")
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    match result.get("metrics") {
        Some(Json::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result without metrics"),
    }
}

fn declared(list: &str) -> BTreeSet<String> {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn smoke_run_of_every_workload_and_both_passes_is_correct_and_quick() {
    let t = Instant::now();
    let out = run(&["--scale", "0.02", "--seconds", "0"]);
    let took = t.elapsed();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(10), "smoke run took {took:?}");
    let lines = results(&out);
    assert_eq!(lines.len(), 4, "one result line per workload");
    let all: BTreeSet<String> = declared("end_to_end")
        .union(&declared("per_layer"))
        .cloned()
        .collect();
    for r in &lines {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            metric_names(r),
            all,
            "printed names must be the declared ones"
        );
    }
}

#[test]
fn each_pass_prints_exactly_its_declared_metrics() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&[
            "--workload",
            "logstore-fsync",
            "--scale",
            "0.02",
            "--seconds",
            "0",
            "--trace",
            trace,
        ]);
        assert!(out.status.success());
        let line = last_line(&out);
        assert_eq!(metric_names(&line), declared(list), "--trace {trace}");
        let Some(Json::Object(metrics)) = line.get("metrics") else {
            unreachable!()
        };
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}

#[test]
fn bad_flags_exit_with_an_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
        &["--frobnicate"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
    }
}
