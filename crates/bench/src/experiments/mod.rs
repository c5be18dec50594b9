//! One module per reproduced experiment (DESIGN.md §4), and [`ALL`], the
//! table of them.
//!
//! Every module exposes `render()`, which runs the experiment and returns
//! the paper-style text that `limit-repro run <name>` prints. Adding an
//! experiment is one module plus one [`ALL`] row: `list`, `run`,
//! `run --check` and the `results/` tests all read the table. Modules keep
//! public only what the integration tests call: structured `run(...)`
//! results whose *shapes* (who wins, by roughly what factor) they assert.

use sim_core::json::Json;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod kernels_char;

/// One reproduced experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `run` takes and `results/<name>.json` carries.
    pub name: &'static str,
    /// The one-line description `list` prints.
    pub title: &'static str,
    /// Runs the experiment and renders its tables.
    pub render: fn() -> Result<String, String>,
}

/// Every experiment, in the order `list` prints and `run all` runs them.
pub static ALL: [Experiment; 19] = [
    Experiment::new("e1", "read-cost table (the headline)", e1::render),
    Experiment::new("e2", "instrumentation overhead on mysqld", e2::render),
    Experiment::new("e3", "virtualized-count exactness", e3::render),
    Experiment::new("e4", "read-race ablation (+ seqlock arm)", e4::render),
    Experiment::new("e5", "sampling vs precise attribution", e5::render),
    Experiment::new(
        "e6",
        "mysqld critical-section histograms + bottleneck ranking",
        e6::render,
    ),
    Experiment::new("e7", "synchronization share vs thread count", e7::render),
    Experiment::new("e8", "firefox task-class characterization", e8::render),
    Experiment::new("e9", "apache per-request accounting", e9::render),
    Experiment::new(
        "e10",
        "the three hardware-counter enhancements",
        e10::render,
    ),
    Experiment::new("e11", "extension: co-location interference", e11::render),
    Experiment::new("e12", "extension: lock-striping what-if study", e12::render),
    Experiment::new("e13", "live-telemetry streaming overhead", e13::render),
    Experiment::new(
        "e14",
        "virtualization torture sweep (injection + oracle)",
        e14::render,
    ),
    Experiment::new(
        "e15",
        "fleet saturation sweep (open-loop arrival-rate knee)",
        e15::render,
    ),
    Experiment::new(
        "e16",
        "causal what-if validation (planted lock/memory bottlenecks)",
        e16::render,
    ),
    Experiment::new(
        "e17",
        "event-trust matrix slice (event x access method x disturbance)",
        e17::render,
    ),
    Experiment::new(
        "e18",
        "I/O-wait observability (io-bound classification + device ranking)",
        e18::render,
    ),
    Experiment::new(
        "kernels",
        "microbenchmark suite characterization + prefetch ablation",
        kernels_char::render,
    ),
];

impl Experiment {
    const fn new(
        name: &'static str,
        title: &'static str,
        render: fn() -> Result<String, String>,
    ) -> Self {
        Experiment {
            name,
            title,
            render,
        }
    }

    /// Runs the experiment and returns its stdout block: a
    /// `########## <name> ##########` header, then the rendered tables.
    pub fn run(&self) -> Result<String, String> {
        Ok(format!(
            "\n########## {} ##########\n{}",
            self.name,
            (self.render)()?
        ))
    }

    /// The `<name>.json` document of one run's output. Host wall time
    /// stays out (it lives in `run-summary.json`), so the file changes
    /// only when the experiment's tables do.
    pub fn result_json(&self, output: &str) -> String {
        Json::object()
            .set("schema", 1u64)
            .set("experiment", self.name)
            .set("tables", output)
            .pretty()
    }

    /// `run --check`: the run must have succeeded and regenerate
    /// `<dir>/<name>.json` byte for byte. The error names the experiment.
    pub fn check(&self, output: &Result<String, String>, dir: &str) -> Result<(), String> {
        let name = self.name;
        let output = output.as_ref().map_err(|e| format!("{name} failed: {e}"))?;
        let path = format!("{dir}/{name}.json");
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("{name}: cannot read {path}: {e}"))?;
        if committed != self.result_json(output) {
            return Err(format!(
                "{name} differs from {path} (re-run `run {name}` to see the new tables)"
            ));
        }
        Ok(())
    }
}
