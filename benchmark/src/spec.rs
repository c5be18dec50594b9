//! The metric declarations in `BENCHMARK.json`, embedded at build time.
//!
//! The file is the single source of metric names, units, directions and
//! regression bounds: the run path refuses to print an undeclared metric
//! and checks that it printed every declared one, and `compare` applies
//! the declared bounds.

use sim_core::json::Json;

/// The repository's benchmark declaration.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether larger values of a metric are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The declared workloads and metrics.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one pass measures: `run`'s default `--seconds`.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parses the embedded declaration.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let field = |m: &Json, key: &str| -> Result<String, String> {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: metric without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: match field(m, "better")?.as_str() {
                            "higher" => Better::Higher,
                            "lower" => Better::Lower,
                            other => return Err(format!("bad direction {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing number \"run_seconds\"")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
