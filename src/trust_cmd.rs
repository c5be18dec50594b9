//! `limit-repro trust`: the event-trust matrix CLI.
//!
//! Runs [`torture::matrix`] over a selectable slice of the
//! event × access-method × disturbance cross-product, prints the verdict
//! grid, and writes one schema-4 NDJSON line per cell to
//! `<out-dir>/trust-matrix.json` (validated by `check-telemetry`). The
//! NDJSON and the grid are byte-identical regardless of `--jobs`: cell
//! order is fixed by the enumeration and no record contains wall-clock
//! data. Per-cell wall times are emitted as `trust/<event>/<method>`
//! spans into `<out-dir>/trust-summary.json`.
//!
//! Exit is nonzero if any selected `rdpmc-fixup` cell is not **exact** —
//! that is the virtualization layer's core promise, and CI smokes it.

use sim_core::json::Json;
use sim_cpu::EventKind;
use torture::matrix::{
    enumerate_cells, render_report, run_cell, AccessMethod, CellReport, Disturb, MatrixConfig,
    Verdict,
};

/// Knobs of a trust run (all have CLI flags).
#[derive(Debug, Clone)]
pub struct TrustOptions {
    pub cfg: MatrixConfig,
    pub jobs: usize,
    pub events: Vec<EventKind>,
    pub methods: Vec<AccessMethod>,
    pub disturbs: Vec<Disturb>,
    pub out_dir: String,
}

impl Default for TrustOptions {
    fn default() -> Self {
        TrustOptions {
            cfg: MatrixConfig::default(),
            jobs: 1,
            events: EventKind::ALL.to_vec(),
            methods: AccessMethod::ALL.to_vec(),
            disturbs: Disturb::ALL.to_vec(),
            out_dir: "results".to_string(),
        }
    }
}

fn ndjson_line(r: &CellReport) -> Json {
    Json::object()
        .set("schema", crate::monitor::TRUST_SCHEMA)
        .set("event", r.cell.event.mnemonic())
        .set("method", r.cell.method.name())
        .set("disturb", r.cell.disturb.name())
        .set("schedules", r.schedules)
        .set("checks", r.checks)
        .set("bounded_checks", r.bounded_checks)
        .set("fired", r.fired)
        .set("divergences", r.divergences)
        .set("bound", r.bound)
        .set("measured", r.measured)
        .set("verdict", r.verdict.label())
}

/// Runs the selected matrix slice. Returns `Ok(true)` when every
/// `rdpmc-fixup` cell came back exact.
pub fn run(opts: &TrustOptions) -> Result<bool, String> {
    let cells = enumerate_cells(&opts.events, &opts.methods, &opts.disturbs);
    if cells.is_empty() {
        return Err("empty matrix slice — nothing selected".to_string());
    }
    let reports = sim_core::parallel::parmap_with(opts.jobs, cells, |cell| {
        let span = bench::spans::start(format!(
            "trust/{}/{}",
            cell.event.mnemonic(),
            cell.method.name()
        ));
        let r = run_cell(&opts.cfg, cell);
        span.finish();
        r
    })
    .into_iter()
    .collect::<Result<Vec<CellReport>, _>>()
    .map_err(|e| e.to_string())?;

    print!("{}", render_report(&reports));
    let mut exact = 0u64;
    let mut bounded = 0u64;
    let mut unreliable = 0u64;
    let mut fixup_ok = true;
    for r in &reports {
        match r.verdict {
            Verdict::Exact => exact += 1,
            Verdict::BoundedError { .. } => bounded += 1,
            Verdict::Unreliable { .. } => {
                unreliable += 1;
                if r.cell.method == AccessMethod::RdpmcFixup {
                    fixup_ok = false;
                    eprintln!(
                        "error: rdpmc-fixup cell {}/{} is not exact ({} divergences) — \
                         virtualization bug",
                        r.cell.event.mnemonic(),
                        r.cell.disturb.name(),
                        r.divergences
                    );
                }
            }
        }
    }
    println!(
        "{} cells: {exact} exact, {bounded} bounded-error, {unreliable} unreliable",
        reports.len()
    );

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir))?;
    let ndjson: String = reports
        .iter()
        .map(|r| ndjson_line(r).compact() + "\n")
        .collect();
    let matrix_path = format!("{}/trust-matrix.json", opts.out_dir);
    std::fs::write(&matrix_path, ndjson).map_err(|e| format!("cannot write {matrix_path}: {e}"))?;
    println!("wrote {matrix_path}");

    let timings = bench::spans::drain();
    let summary = Json::object()
        .set("schema", 1u64)
        .set("jobs", opts.jobs)
        .set("cells", reports.len())
        .set("exact", exact)
        .set("bounded_error", bounded)
        .set("unreliable", unreliable)
        .set(
            "timings",
            Json::Array(
                timings
                    .iter()
                    .map(|s| {
                        Json::object()
                            .set("name", s.name.as_str())
                            .set("start_ms", s.start_ms)
                            .set("wall_ms", s.wall_ms)
                    })
                    .collect(),
            ),
        );
    let summary_path = format!("{}/trust-summary.json", opts.out_dir);
    std::fs::write(&summary_path, summary.pretty())
        .map_err(|e| format!("cannot write {summary_path}: {e}"))?;
    Ok(fixup_ok)
}
