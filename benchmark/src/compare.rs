//! The `compare` subcommand: two sets of `run --out` files, judged per
//! workload and metric.
//!
//! Run *i* of the parent set pairs with run *i* of the change set (make
//! the runs alternate). For each metric it prints both sides' median and
//! quartiles, then a verdict:
//!
//! * **better** — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ, in its favour, by more
//!   than the parent's interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound, however wide the spread;
//! * **unresolved** — neither, the parent's own spread is wider than the
//!   bound, and not every change run beats every parent run: the runs
//!   cannot tell "unchanged" from a regression within the bound;
//! * **unchanged** — none of the above.
//!
//! The bound is the declared share of the parent's median; for `setup_s`
//! it is never less than [`SETUP_FLOOR_S`]. Per-layer metrics have no
//! bound: they are better, worse (the gain rule in the other direction),
//! unchanged when every value on both sides is identical, and unresolved
//! otherwise. The exit status is 1 when any end-to-end metric is worse.

use crate::spec::{Better, Metric, Spec};
use crate::stats;
use sim_core::json::Json;
use std::collections::BTreeMap;

/// (workload, metric) → values in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
            let Some(Json::Object(metrics)) = doc.get("result").and_then(|r| r.get("metrics"))
            else {
                return Err(format!("{path}:{}: no result metrics", n + 1));
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    runs.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// `a` is better than `b` for a metric going `dir`.
fn beats(dir: Better, a: f64, b: f64) -> bool {
    match dir {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// The least regression bound of `setup_s`, in seconds: a cold set-up
/// lasts about a millisecond and jitters by about half of one.
const SETUP_FLOOR_S: f64 = 1e-3;

/// The verdict for one metric.
pub fn verdict(m: &Metric, parent: &[f64], change: &[f64]) -> &'static str {
    let (Some(mp), Some(mc)) = (stats::median(parent), stats::median(change)) else {
        return "unresolved";
    };
    let (q1, q3) = stats::quartiles(parent).expect("non-empty");
    let iqr = q3 - q1;
    let pairs = parent.len().min(change.len());
    let wins = |dir| {
        parent
            .iter()
            .zip(change)
            .filter(|&(&p, &c)| beats(dir, c, p))
            .count()
    };
    let flip = match m.better {
        Better::Higher => Better::Lower,
        Better::Lower => Better::Higher,
    };
    let gain = |dir, a: f64, b: f64| {
        wins(dir) * 10 >= pairs * 9 && beats(dir, a, b) && (a - b).abs() > iqr
    };
    if gain(m.better, mc, mp) {
        return "better";
    }
    let Some(bound) = m.bound else {
        if gain(flip, mc, mp) {
            return "worse";
        }
        let same = parent.iter().chain(change).all(|&v| v == parent[0]);
        return if same { "unchanged" } else { "unresolved" };
    };
    let floor = if m.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
    let limit = (bound * mp.abs()).max(floor);
    if beats(flip, mc, mp) && (mc - mp).abs() > limit {
        return "worse";
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| beats(m.better, c, p)));
    if iqr > limit && !all_better {
        return "unresolved";
    }
    "unchanged"
}

pub fn cmd(args: &[String], spec: &Spec) -> Result<bool, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => match side.as_mut() {
                Some(files) => files.push(path.to_string()),
                None => return Err(format!("{path:?}: expected --parent or --change first")),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs --parent FILE... and --change FILE...".into());
    }
    let (p, c) = (load(&parent)?, load(&change)?);
    let mut ok = true;
    println!(
        "{:<16} {:<34} {:>28} {:>28} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (w.clone(), m.name.clone());
            let (Some(pv), Some(cv)) = (p.get(&key), c.get(&key)) else {
                continue;
            };
            let show = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v).expect("non-empty");
                let med = stats::median(v).expect("non-empty");
                format!("{med:.4} [{q1:.4}, {q3:.4}]")
            };
            let wins = pv
                .iter()
                .zip(cv)
                .filter(|&(&a, &b)| beats(m.better, b, a))
                .count();
            let v = verdict(m, pv, cv);
            ok &= !(v == "worse" && m.bound.is_some());
            println!(
                "{w:<16} {:<34} {:>28} {:>28} {:>3}/{:<2}  {v}",
                m.name,
                show(pv),
                show(cv),
                wins,
                pv.len().min(cv.len())
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: Option<f64>) -> Metric {
        Metric {
            name: "ops_per_s".into(),
            unit: "s".into(),
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_pair_and_spread_rules() {
        let hi = metric(Better::Higher, Some(0.1));
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let up: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        let down: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let flat: Vec<f64> = parent.iter().map(|v| v * 0.97).collect();
        assert_eq!(verdict(&hi, &parent, &up), "better");
        assert_eq!(verdict(&hi, &parent, &down), "worse");
        assert_eq!(verdict(&hi, &parent, &flat), "unchanged");
        // A parent spread wider than the bound cannot show "unchanged".
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&hi, &noisy, &noisy), "unresolved");
        // ... but a regression beyond the bound is worse however noisy
        // the parent.
        let much_worse: Vec<f64> = noisy.iter().map(|v| v * 0.6).collect();
        assert_eq!(verdict(&hi, &noisy, &much_worse), "worse");
        let count = metric(Better::Lower, None);
        assert_eq!(verdict(&count, &[3.0, 3.0], &[3.0, 3.0]), "unchanged");
        assert_eq!(verdict(&count, &[3.0; 10], &[2.0; 10]), "better");
    }

    #[test]
    fn setup_bound_is_at_least_a_millisecond() {
        let setup = Metric {
            name: "setup_s".into(),
            ..metric(Better::Lower, Some(0.25))
        };
        let parent = [0.5e-3; 10];
        // Twice as slow, but only 0.5 ms more: within the floor.
        assert_eq!(verdict(&setup, &parent, &[1.0e-3; 10]), "unchanged");
        assert_eq!(verdict(&setup, &parent, &[1.6e-3; 10]), "worse");
        // Above 4 ms the share governs.
        assert_eq!(verdict(&setup, &[8e-3; 10], &[10.5e-3; 10]), "worse");
    }
}
