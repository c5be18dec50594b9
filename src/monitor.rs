//! `limit-repro monitor <workload>`: live telemetry over a streaming run.
//!
//! The workload is built in stream mode (per-thread SPSC rings), a
//! [`Collector`] drains the rings every `--interval` guest cycles, and
//! each drain serves a [`Snapshot`]: a per-region table printed to stdout,
//! an online bottleneck classification ([`analysis::classify`]), and one
//! NDJSON record appended to `<out-dir>/telemetry-<workload>.json`. The
//! companion `check-telemetry` subcommand re-parses that file and verifies
//! the schema plus the transport-accounting invariant, so CI can smoke the
//! whole pipeline.

use analysis::online::{classify, DetectorConfig, Finding};
use limit::harness::{Session, SessionBuilder};
use limit::{LimitReader, LogMode, StreamConfig};
use sim_core::json::Json;
use sim_cpu::EventKind;
use sim_os::io::DEVICE_NAMES;
use telemetry::{run_streaming, Collector, Snapshot};
use workloads::Workload;

/// Counters every monitored run attaches: cycles rank regions,
/// instructions + LLC misses feed the memory-bound detector.
pub const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];
const EVENT_NAMES: [&str; 3] = ["cycles", "instrs", "llc"];

/// NDJSON schema version written by `monitor` and `fleet`, checked by
/// `check-telemetry`. Every line carries an `instance` field: a numeric
/// instance id on per-instance lines, or the string `"fleet"` on the
/// fleet roll-up line. Every region carries an `io` array — one entry
/// per device the region blocked on (`{device, calls, wait, slow, hist}`)
/// — bound by the I/O conservation invariant: on loss-free lines, a
/// region's summed device waits can never exceed its cycle sum, because
/// the kernel charges every wait into the region's cycle accumulator at
/// wake. Any other monitor schema is rejected. (Schemas 3 and 4
/// belong to `whatif` and `trust`.)
pub const SCHEMA: u64 = 5;

/// NDJSON schema version written by the `whatif` subcommand: one line
/// per region x arm (baseline lines first), validated by the schema-3
/// branch of `check-telemetry`.
pub const WHATIF_SCHEMA: u64 = 3;

/// NDJSON schema version written by the `trust` subcommand: one line per
/// trust-matrix cell (event × access method × disturbance), validated by
/// the schema-4 branch of `check-telemetry`.
pub const TRUST_SCHEMA: u64 = 4;

/// Knobs of a monitored run (all have CLI flags).
#[derive(Debug, Clone)]
pub struct MonitorOptions {
    /// Worker threads in the workload.
    pub threads: usize,
    /// Operations per worker: queries, commits, requests or event-loop
    /// tasks, whichever the workload counts (see [`Workload::shape`]).
    pub queries: u64,
    /// Drain cadence in guest cycles.
    pub interval: u64,
    /// Per-thread ring capacity in records (power of two).
    pub capacity: u64,
    /// Directory receiving `telemetry-<workload>.json`.
    pub out_dir: String,
}

impl Default for MonitorOptions {
    fn default() -> Self {
        MonitorOptions {
            threads: 8,
            queries: 150,
            interval: 50_000,
            capacity: 256,
            out_dir: "results".to_string(),
        }
    }
}

/// Builds `workload` in stream mode, shaped by `opts`; returns the
/// session and its guest thread count.
fn build_session(workload: &str, opts: &MonitorOptions) -> Result<(Session, usize), String> {
    let mode = LogMode::Stream(StreamConfig::dropping(opts.capacity));
    let (w, threads) = Workload::parse(workload)?.shape(opts.threads, opts.queries, None, mode);
    let reader = LimitReader::with_events(EVENTS.to_vec());
    let builder = SessionBuilder::new(opts.threads.clamp(1, 8));
    let session = w
        .build(&reader, builder, &EVENTS)
        .map_err(|e| e.to_string())?;
    Ok((session, threads))
}

/// One snapshot (with pre-rendered findings) as a schema-5 NDJSON record.
/// `instance` is the per-instance id, or the string `"fleet"` on the
/// roll-up line. Shared by `monitor` (always instance 0) and the `fleet`
/// subcommand.
pub fn snapshot_json_with(
    workload: &str,
    instance: Json,
    snap: &Snapshot,
    findings_json: Json,
) -> Json {
    let regions = snap
        .regions
        .iter()
        .map(|r| {
            let hist: Vec<Json> = r
                .events
                .iter()
                .map(|h| {
                    Json::Array(
                        h.iter_buckets()
                            .map(|(lo, hi, n)| Json::Array(vec![lo.into(), hi.into(), n.into()]))
                            .collect(),
                    )
                })
                .collect();
            let io: Vec<Json> =
                r.io.iter()
                    .map(|s| {
                        let hist: Vec<Json> = s
                            .hist
                            .iter_buckets()
                            .map(|(lo, hi, n)| Json::Array(vec![lo.into(), hi.into(), n.into()]))
                            .collect();
                        Json::object()
                            .set("device", DEVICE_NAMES[s.device])
                            .set("calls", s.calls())
                            .set("wait", s.wait_sum())
                            .set("slow", s.slow_calls)
                            .set("hist", Json::Array(hist))
                    })
                    .collect();
            Json::object()
                .set("name", r.name.as_str())
                .set("count", r.count)
                .set(
                    "sums",
                    (0..EVENTS.len())
                        .map(|i| r.event_sum(i))
                        .collect::<Vec<u64>>(),
                )
                .set("hist", Json::Array(hist))
                .set("io", Json::Array(io))
        })
        .collect();
    Json::object()
        .set("schema", SCHEMA)
        .set("workload", workload)
        .set("instance", instance)
        .set("seq", snap.seq)
        .set("cycle", snap.cycle)
        .set("appended", snap.appended)
        .set("drained", snap.drained)
        .set("dropped", snap.dropped)
        .set("overwritten", snap.overwritten)
        .set("in_flight", snap.in_flight())
        .set("events", EVENT_NAMES.to_vec())
        .set("regions", Json::Array(regions))
        .set("findings", findings_json)
}

/// Single-instance findings rendered for the NDJSON `findings` array.
pub fn findings_json(findings: &[Finding]) -> Json {
    Json::Array(
        findings
            .iter()
            .map(|f| {
                Json::object()
                    .set("kind", f.kind.to_string())
                    .set("region", f.region.as_str())
                    .set("share", f.share)
                    .set("detail", f.detail.as_str())
            })
            .collect(),
    )
}

/// Runs the monitor: streams snapshots to stdout and NDJSON to
/// `<out-dir>/telemetry-<workload>.json`.
pub fn run(workload: &str, opts: &MonitorOptions) -> Result<(), String> {
    if !opts.capacity.is_power_of_two() {
        return Err(format!(
            "--capacity must be a power of two, got {}",
            opts.capacity
        ));
    }
    if opts.interval == 0 {
        return Err("--interval must be non-zero".to_string());
    }
    let (mut session, threads) = build_session(workload, opts)?;
    let mut collector = Collector::new(threads.max(1), EVENTS.len());
    collector.attach(&session);
    println!(
        "monitoring {workload}: {} threads, ring capacity {}, drain every {} cycles",
        opts.threads, opts.capacity, opts.interval
    );

    let detector = DetectorConfig::default();
    let mut ndjson = String::new();
    let mut total_findings = 0usize;
    let report = run_streaming(&mut session, &mut collector, opts.interval, |snap| {
        let findings = classify(snap, &EVENTS, &detector);
        println!("{}", snap.render(&EVENT_NAMES));
        for f in &findings {
            println!(
                "  >> {}: {} ({:.1}% of cycles; {})",
                f.kind,
                f.region,
                f.share * 100.0,
                f.detail
            );
        }
        if !findings.is_empty() {
            println!();
        }
        total_findings += findings.len();
        let line = snapshot_json_with(workload, 0u64.into(), snap, findings_json(&findings));
        ndjson.push_str(&line.compact());
        ndjson.push('\n');
    })
    .map_err(|e| e.to_string())?;

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir))?;
    let path = format!("{}/telemetry-{workload}.json", opts.out_dir);
    std::fs::write(&path, &ndjson).map_err(|e| format!("cannot write {path}: {e}"))?;

    let snapshots = ndjson.lines().count();
    println!(
        "run complete: {} cycles, {} snapshots, {} records drained, {} dropped, {} findings",
        report.total_cycles,
        snapshots,
        collector.drained(),
        collector.dropped(),
        total_findings
    );
    println!("wrote {path}");
    Ok(())
}

/// Per-stream progress state inside `check`: fleet files interleave
/// one stream per instance (plus the `"fleet"` roll-up), each with its
/// own monotone seq/drained sequence.
struct StreamState {
    last_seq: u64,
    last_drained: u64,
    /// The stream's latest line (the final snapshot once the file ends).
    last: Json,
}

/// `limit-repro check-telemetry <file>`: validates an NDJSON stream
/// written by `monitor` or `fleet` — per-line schema (v5 only),
/// per-instance monotone progress, the transport-accounting invariant on
/// every line, and (for fleet files) conservation between the fleet
/// roll-up line and the sum of the per-instance lines. Schema-3 files
/// (written by `whatif`) dispatch to [`check_whatif`]; schema-4 files
/// (written by `trust`) dispatch to [`check_trust`].
pub fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Peek the first line's schema: whatif files are a different record
    // shape (region x arm diffs, not transport snapshots).
    if let Some(first) = text.lines().next() {
        let schema = Json::parse(first)
            .ok()
            .and_then(|d| d.get("schema").and_then(Json::as_u64));
        if schema == Some(WHATIF_SCHEMA) {
            return check_whatif(path, &text);
        }
        if schema == Some(TRUST_SCHEMA) {
            return check_trust(path, &text);
        }
    }
    let mut snapshots = 0u64;
    let mut findings = 0u64;
    let mut streams: std::collections::HashMap<String, StreamState> =
        std::collections::HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let doc = Json::parse(line).map_err(|e| format!("{path}:{n}: {e}"))?;
        let field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}:{n}: missing numeric field {key:?}"))
        };
        let schema = field("schema")?;
        if schema != SCHEMA {
            return Err(format!("{path}:{n}: unsupported schema {schema}"));
        }
        let key = match doc.get("instance") {
            Some(v) => match (v.as_u64(), v.as_str()) {
                (Some(id), _) => id.to_string(),
                (None, Some("fleet")) => "fleet".to_string(),
                _ => {
                    return Err(format!(
                        "{path}:{n}: instance must be a number or \"fleet\""
                    ))
                }
            },
            None => return Err(format!("{path}:{n}: line missing instance")),
        };
        let seq = field("seq")?;
        let drained = field("drained")?;
        if let Some(st) = streams.get(&key) {
            if seq <= st.last_seq {
                return Err(format!("{path}:{n}: seq not monotone"));
            }
            if drained < st.last_drained {
                return Err(format!("{path}:{n}: drained went backwards"));
            }
        }
        let (appended, dropped, overwritten, in_flight) = (
            field("appended")?,
            field("dropped")?,
            field("overwritten")?,
            field("in_flight")?,
        );
        if appended != drained + overwritten + in_flight {
            return Err(format!(
                "{path}:{n}: accounting violated: {appended} appended != {drained} drained + {overwritten} overwritten + {in_flight} in-flight (+ {dropped} dropped never entered a ring)"
            ));
        }
        let regions = doc
            .get("regions")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}:{n}: missing regions array"))?;
        for r in regions {
            for key in ["name", "count", "sums", "hist"] {
                if r.get(key).is_none() {
                    return Err(format!("{path}:{n}: region missing {key:?}"));
                }
            }
            // Histogram counts must reproduce the region's exit count.
            let count = r.get("count").and_then(Json::as_u64).unwrap_or(0);
            if let Some(hists) = r.get("hist").and_then(Json::as_array) {
                for h in hists {
                    let total: u64 = h
                        .as_array()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|b| b.as_array()?.get(2)?.as_u64())
                        .sum();
                    if total != count {
                        return Err(format!(
                            "{path}:{n}: histogram totals {total} != count {count}"
                        ));
                    }
                }
            }
            let io = r
                .get("io")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{path}:{n}: region missing io array"))?;
            for d in io {
                for key in ["device", "calls", "wait", "slow", "hist"] {
                    if d.get(key).is_none() {
                        return Err(format!("{path}:{n}: io entry missing {key:?}"));
                    }
                }
                let device = d.get("device").and_then(Json::as_str).unwrap_or("");
                if !DEVICE_NAMES.contains(&device) {
                    return Err(format!("{path}:{n}: unknown io device {device:?}"));
                }
                let calls = d.get("calls").and_then(Json::as_u64).unwrap_or(0);
                let slow = d.get("slow").and_then(Json::as_u64).unwrap_or(0);
                if slow > calls {
                    return Err(format!(
                        "{path}:{n}: io device {device}: {slow} slow calls > {calls} calls"
                    ));
                }
                // The io wait histogram buckets every call once.
                let total: u64 = d
                    .get("hist")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|b| b.as_array()?.get(2)?.as_u64())
                    .sum();
                if total != calls {
                    return Err(format!(
                        "{path}:{n}: io device {device}: histogram totals {total} != calls {calls}"
                    ));
                }
            }
        }
        findings += doc
            .get("findings")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}:{n}: missing findings array"))?
            .len() as u64;
        snapshots += 1;
        streams.insert(
            key,
            StreamState {
                last_seq: seq,
                last_drained: drained,
                last: doc,
            },
        );
    }
    let is_fleet = streams.contains_key("fleet");
    if is_fleet {
        if streams.len() < 2 {
            return Err(format!("{path}: fleet roll-up with no instance lines"));
        }
    } else if snapshots < 3 {
        return Err(format!(
            "{path}: only {snapshots} snapshots — expected mid-run streaming (>= 3)"
        ));
    }
    if findings == 0 {
        return Err(format!("{path}: no bottleneck findings in any snapshot"));
    }
    // Every stream's final snapshot must have drained everything.
    for (key, st) in &streams {
        if st.last.get("in_flight").and_then(Json::as_u64) != Some(0) {
            return Err(format!(
                "{path}: instance {key} final snapshot left records in flight"
            ));
        }
    }
    // I/O conservation: every wait is charged into the waiter's cycle
    // accumulator at wake, so once every region has exited the device
    // waits can never exceed the region's cycle sum. That only holds on
    // the *final* snapshot of a loss-free stream — mid-run lines can
    // carry a wake whose region is still in flight (wait counted, exit
    // cycles not yet), and a dropped or overwritten record can lose the
    // cycle side while the kernel-folded io side survives.
    for (key, st) in &streams {
        let doc = &st.last;
        let lossless = doc.get("dropped").and_then(Json::as_u64) == Some(0)
            && doc.get("overwritten").and_then(Json::as_u64) == Some(0);
        if !lossless {
            continue;
        }
        for r in doc.get("regions").and_then(Json::as_array).unwrap_or(&[]) {
            let io_wait: u64 = r
                .get("io")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|d| d.get("wait").and_then(Json::as_u64))
                .sum();
            let cycles = r
                .get("sums")
                .and_then(Json::as_array)
                .and_then(|s| s.first())
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if io_wait > cycles {
                let name = r.get("name").and_then(Json::as_str).unwrap_or("?");
                return Err(format!(
                    "{path}: io conservation violated in final snapshot (instance {key}): region \
                     {name:?} has {io_wait} wait cycles > {cycles} region cycles on a \
                     loss-free stream"
                ));
            }
        }
    }
    // Fleet conservation: the roll-up must equal the sum of the
    // per-instance final snapshots, field by field.
    if let Some(fleet) = streams.get("fleet") {
        for key in ["appended", "drained", "dropped", "overwritten"] {
            let total: u64 = streams
                .iter()
                .filter(|(k, _)| k.as_str() != "fleet")
                .filter_map(|(_, st)| st.last.get(key).and_then(Json::as_u64))
                .sum();
            let rolled = fleet.last.get(key).and_then(Json::as_u64).unwrap_or(0);
            if total != rolled {
                return Err(format!(
                    "{path}: fleet conservation violated: {key} rolls up to {rolled} \
                     but instances sum to {total}"
                ));
            }
        }
    }
    let what = if is_fleet {
        format!("{} instance streams + fleet roll-up", streams.len() - 1)
    } else {
        format!("{snapshots} snapshots")
    };
    println!("{path}: ok — {what}, {findings} findings, final drain clean");
    Ok(())
}

/// Validates a schema-3 what-if NDJSON file: one line per region x arm,
/// baseline lines first. Checks per-line fields, a single workload and
/// scale across the file, `(region, arm)` uniqueness, and
/// baseline-vs-arm conservation — every arm line's region must exist in
/// the baseline block and carry the baseline's exact `base_count` /
/// `base_cycles`, so a diff can never quietly reference a baseline that
/// was not in the file.
fn check_whatif(path: &str, text: &str) -> Result<(), String> {
    let mut baseline: std::collections::HashMap<String, (u64, u64)> =
        std::collections::HashMap::new();
    let mut seen: std::collections::HashSet<(String, String)> = std::collections::HashSet::new();
    let mut arms: Vec<String> = Vec::new();
    let mut workload: Option<String> = None;
    let mut scale: Option<f64> = None;
    let mut in_baseline = true;
    let mut lines = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let doc = Json::parse(line).map_err(|e| format!("{path}:{n}: {e}"))?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}:{n}: missing numeric field {key:?}"))
        };
        let fnum = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{n}: missing numeric field {key:?}"))
        };
        let txt = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}:{n}: missing string field {key:?}"))
        };
        if num("schema")? != WHATIF_SCHEMA {
            return Err(format!("{path}:{n}: mixed schemas in a whatif file"));
        }
        let wl = txt("workload")?;
        match &workload {
            None => workload = Some(wl),
            Some(w) if *w == wl => {}
            Some(w) => {
                return Err(format!("{path}:{n}: workload {wl:?} != {w:?}"));
            }
        }
        let sc = fnum("scale")?;
        match scale {
            None => scale = Some(sc),
            Some(s) if s == sc => {}
            Some(s) => return Err(format!("{path}:{n}: scale {sc} != {s}")),
        }
        let arm = txt("arm")?;
        let region = txt("region")?;
        if !seen.insert((region.clone(), arm.clone())) {
            return Err(format!(
                "{path}:{n}: duplicate region {region:?} in arm {arm:?}"
            ));
        }
        let (count, cycles) = (num("count")?, num("cycles")?);
        let (base_count, base_cycles) = (num("base_count")?, num("base_cycles")?);
        let (knob_base, knob_scaled) = (num("knob_base")?, num("knob_scaled")?);
        let (sens, impact) = (fnum("sensitivity")?, fnum("impact")?);
        if arm == "baseline" {
            if !in_baseline {
                return Err(format!(
                    "{path}:{n}: baseline line after arm lines — baseline block must come first"
                ));
            }
            if knob_base != 0 || knob_scaled != 0 || sens != 0.0 || impact != 0.0 {
                return Err(format!(
                    "{path}:{n}: baseline line must have zero knob/sensitivity fields"
                ));
            }
            if count != base_count || cycles != base_cycles {
                return Err(format!(
                    "{path}:{n}: baseline line disagrees with its own base fields"
                ));
            }
            baseline.insert(region, (count, cycles));
        } else {
            in_baseline = false;
            if !arms.contains(&arm) {
                arms.push(arm.clone());
            }
            if knob_scaled <= knob_base {
                return Err(format!(
                    "{path}:{n}: arm {arm:?} knob not scaled up ({knob_base} -> {knob_scaled})"
                ));
            }
            match baseline.get(&region) {
                None => {
                    return Err(format!(
                        "{path}:{n}: arm {arm:?} region {region:?} absent from baseline"
                    ));
                }
                Some(&(bc, bcy)) if bc != base_count || bcy != base_cycles => {
                    return Err(format!(
                        "{path}:{n}: arm {arm:?} region {region:?} base fields \
                         ({base_count}, {base_cycles}) != baseline ({bc}, {bcy})"
                    ));
                }
                Some(_) => {}
            }
        }
        lines += 1;
    }
    if baseline.is_empty() {
        return Err(format!("{path}: no baseline lines"));
    }
    if arms.is_empty() {
        return Err(format!("{path}: no arm lines after the baseline block"));
    }
    println!(
        "{path}: ok — whatif: {} arms x {} baseline regions, {lines} lines, \
         base fields conserved",
        arms.len(),
        baseline.len()
    );
    Ok(())
}

/// Validates a schema-4 trust-matrix NDJSON file: one line per
/// (event, method, disturbance) cell. Checks per-line fields, cell
/// uniqueness, and that each verdict is consistent with the evidence on
/// its own line — **exact** requires completed exactness checks and zero
/// divergences, **bounded-error** requires completed bounded checks and
/// a measured error within the claimed bound, **unreliable** requires
/// actual evidence of unreliability (a divergence or a blown bound), and
/// disturbed cells must have fired at least one injection (a cell that
/// never disturbed anything proves nothing).
fn check_trust(path: &str, text: &str) -> Result<(), String> {
    let mut seen: std::collections::HashSet<(String, String, String)> =
        std::collections::HashSet::new();
    let mut lines = 0u64;
    let mut verdicts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let doc = Json::parse(line).map_err(|e| format!("{path}:{n}: {e}"))?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}:{n}: missing numeric field {key:?}"))
        };
        let txt = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}:{n}: missing string field {key:?}"))
        };
        if num("schema")? != TRUST_SCHEMA {
            return Err(format!("{path}:{n}: mixed schemas in a trust file"));
        }
        let (event, method, disturb) = (txt("event")?, txt("method")?, txt("disturb")?);
        if !seen.insert((event.clone(), method.clone(), disturb.clone())) {
            return Err(format!(
                "{path}:{n}: duplicate cell {event}/{method}/{disturb}"
            ));
        }
        let schedules = num("schedules")?;
        let checks = num("checks")?;
        let bounded_checks = num("bounded_checks")?;
        let fired = num("fired")?;
        let divergences = num("divergences")?;
        let bound = num("bound")?;
        let measured = num("measured")?;
        if schedules == 0 {
            return Err(format!("{path}:{n}: cell ran no schedules"));
        }
        if disturb != "none" && fired == 0 {
            return Err(format!(
                "{path}:{n}: disturbed cell {event}/{method}/{disturb} fired no injections"
            ));
        }
        let verdict = txt("verdict")?;
        match verdict.as_str() {
            "exact" => {
                if divergences != 0 {
                    return Err(format!(
                        "{path}:{n}: exact verdict with {divergences} divergences"
                    ));
                }
                if checks == 0 {
                    return Err(format!("{path}:{n}: exact verdict with zero checks"));
                }
            }
            "bounded-error" => {
                if bounded_checks == 0 {
                    return Err(format!(
                        "{path}:{n}: bounded-error verdict with zero bounded checks"
                    ));
                }
                if measured > bound {
                    return Err(format!(
                        "{path}:{n}: bounded-error verdict but measured {measured} > bound {bound}"
                    ));
                }
            }
            "unreliable" => {
                if divergences == 0 && measured <= bound {
                    return Err(format!(
                        "{path}:{n}: unreliable verdict with no divergence and measured \
                         {measured} <= bound {bound}"
                    ));
                }
            }
            other => return Err(format!("{path}:{n}: unknown verdict {other:?}")),
        }
        *verdicts.entry(verdict).or_insert(0) += 1;
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: empty trust file"));
    }
    let breakdown: Vec<String> = verdicts.iter().map(|(v, c)| format!("{c} {v}")).collect();
    println!(
        "{path}: ok — trust matrix: {lines} cells ({}), verdicts consistent",
        breakdown.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_lines(name: &str, lines: &[String]) -> String {
        let path =
            std::env::temp_dir().join(format!("limit-check-{}-{name}.ndjson", std::process::id()));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path.to_string_lossy().into_owned()
    }

    fn io_entry(device: &str, calls: u64, wait: u64, slow: u64) -> String {
        format!(
            r#"{{"device":"{device}","calls":{calls},"wait":{wait},"slow":{slow},"hist":[[0,{wait},{calls}]]}}"#
        )
    }

    fn mk_line(seq: u64, dropped: u64, cycles: u64, io: &str) -> String {
        format!(
            r#"{{"schema":5,"workload":"logstore","instance":0,"seq":{seq},"cycle":{c},"appended":4,"drained":4,"dropped":{dropped},"overwritten":0,"in_flight":0,"events":["cycles","instrs","llc"],"regions":[{{"name":"store.commit","count":2,"sums":[{cycles},50,1],"hist":[[[0,9,2]],[[0,9,2]],[[0,9,2]]],"io":[{io}]}}],"findings":[{{"kind":"io-bound","region":"store.commit","share":0.9,"detail":"t"}}]}}"#,
            c = seq * 1000
        )
    }

    fn run_check(name: &str, lines: &[String]) -> Result<(), String> {
        let path = write_lines(name, lines);
        let out = check(&path);
        std::fs::remove_file(&path).ok();
        out
    }

    fn valid_stream(io: &str) -> Vec<String> {
        (1..=3).map(|s| mk_line(s, 0, 10_000, io)).collect()
    }

    #[test]
    fn check_accepts_valid_io_stream() {
        let lines = valid_stream(&io_entry("fsync", 2, 600, 1));
        run_check("valid", &lines).unwrap();
    }

    #[test]
    fn check_rejects_legacy_schema2() {
        // A schema-2 line (no io arrays) in an otherwise valid stream.
        let mut lines = valid_stream(&io_entry("fsync", 2, 600, 1));
        lines[1] = r#"{"schema":2,"workload":"mysqld","instance":0,"seq":2,"cycle":2000,"appended":4,"drained":4,"dropped":0,"overwritten":0,"in_flight":0,"events":["cycles","instrs","llc"],"regions":[{"name":"r","count":2,"sums":[100,50,1],"hist":[[[0,9,2]],[[0,9,2]],[[0,9,2]]]}],"findings":[{"kind":"cpu-bound","region":"r","share":0.9,"detail":"t"}]}"#.to_string();
        let err = run_check("legacy", &lines).unwrap_err();
        assert!(err.ends_with(":2: unsupported schema 2"), "{err}");
    }

    #[test]
    fn check_rejects_schema5_region_without_io() {
        let mut lines = valid_stream(&io_entry("fsync", 2, 600, 1));
        lines[1] = lines[1].replace(r#","io":[{"#, r#","noio":[{"#);
        let err = run_check("no-io", &lines).unwrap_err();
        assert!(err.contains("missing io array"), "{err}");
    }

    #[test]
    fn check_rejects_unknown_device() {
        let lines = valid_stream(&io_entry("tape", 2, 600, 1));
        let err = run_check("bad-dev", &lines).unwrap_err();
        assert!(err.contains("unknown io device"), "{err}");
    }

    #[test]
    fn check_rejects_io_hist_total_mismatch() {
        // One bucket of 5 entries against calls = 2.
        let entry = r#"{"device":"disk","calls":2,"wait":600,"slow":0,"hist":[[0,600,5]]}"#;
        let lines = valid_stream(entry);
        let err = run_check("hist-mismatch", &lines).unwrap_err();
        assert!(err.contains("histogram totals 5 != calls 2"), "{err}");
    }

    #[test]
    fn check_rejects_more_slow_calls_than_calls() {
        let lines = valid_stream(&io_entry("net", 2, 600, 3));
        let err = run_check("slow-gt-calls", &lines).unwrap_err();
        assert!(err.contains("slow calls"), "{err}");
    }

    #[test]
    fn check_rejects_io_wait_exceeding_region_cycles_when_lossless() {
        // 20k wait cycles against a 10k cycle sum on a loss-free line.
        let lines = valid_stream(&io_entry("fsync", 2, 20_000, 1));
        let err = run_check("conservation", &lines).unwrap_err();
        assert!(err.contains("io conservation violated"), "{err}");
    }

    #[test]
    fn check_allows_in_flight_io_wait_mid_run() {
        // Mid-run snapshots can carry a wake whose region is still in
        // flight (io wait recorded, exit cycles not yet drained); only
        // the final snapshot must conserve.
        let io = io_entry("fsync", 2, 20_000, 1);
        let lines = vec![
            mk_line(1, 0, 10_000, &io),
            mk_line(2, 0, 10_000, &io),
            mk_line(3, 0, 30_000, &io),
        ];
        run_check("in-flight", &lines).unwrap();
    }

    #[test]
    fn check_skips_io_conservation_on_lossy_lines() {
        // Same overflow, but the line reports drops: a dropped cycle
        // record can legitimately leave the io side larger.
        let lines: Vec<String> = (1..=3)
            .map(|s| mk_line(s, 1, 10_000, &io_entry("fsync", 2, 20_000, 1)))
            .collect();
        run_check("lossy", &lines).unwrap();
    }
}
