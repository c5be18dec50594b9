//! `limit-repro trace <workload>`: run a synthetic application with the
//! machine-wide flight recorder attached, then export the timeline twice —
//! compact NDJSON (validated by `check-trace`) and Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`). The host side of the run
//! (build and execute phases) rides along as bench self-profiling spans on
//! the Chrome export's host track.

use bench::spans;
use flight::{Categories, FlightConfig, HostSpan};
use limit::harness::{Session, SessionBuilder};
use limit::LimitReader;
use sim_core::json::Json;
use sim_cpu::EventKind;
use workloads::Workload;

/// Counters attached to every traced run (mirrors `monitor`).
const EVENTS: [EventKind; 3] = [
    EventKind::Cycles,
    EventKind::Instructions,
    EventKind::LlcMisses,
];

/// Knobs of a traced run (all have CLI flags).
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Directory receiving `trace-<workload>.ndjson` / `.json`.
    pub out_dir: String,
    /// Per-core ring capacity in events (power of two). The default is
    /// sized so a full default-config workload run retains every event —
    /// `check` rejects truncated traces.
    pub buf_slots: u64,
    /// Event categories to record.
    pub categories: Categories,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            out_dir: crate::OUT_DIR.to_string(),
            buf_slots: 1 << 20,
            categories: Categories::ALL,
        }
    }
}

/// Builds `workload` in its stock configuration on its stock core count
/// (shared with `stat`).
pub fn stock_session(workload: &str, events: &[EventKind]) -> Result<Session, String> {
    let w = Workload::parse(workload)?;
    let reader = LimitReader::with_events(events.to_vec());
    w.build(&reader, SessionBuilder::new(w.stock_cores()), events)
        .map_err(|e| e.to_string())
}

/// Converts drained bench spans into Chrome host-track spans.
pub fn host_spans(drained: &[spans::SpanRecord]) -> Vec<HostSpan> {
    drained
        .iter()
        .map(|s| HostSpan {
            name: s.name.clone(),
            start_us: s.start_ms * 1e3,
            dur_us: s.wall_ms * 1e3,
            args: s.meta.clone(),
        })
        .collect()
}

/// Exports the session's flight recorder to `<out_dir>/<stem>.ndjson` and
/// `<out_dir>/<stem>.json`, validates the NDJSON, and prints where
/// everything went. Shared by `trace` and `torture --replay`.
pub fn export_session(session: &Session, stem: &str, out_dir: &str) -> Result<(), String> {
    let rec = session
        .kernel
        .machine
        .flight()
        .ok_or("internal error: flight recorder not attached")?;
    let freq_hz = (session.freq().ghz() * 1e9) as u64;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let ndjson_path = format!("{out_dir}/{stem}.ndjson");
    let text = flight::ndjson(rec, freq_hz);
    std::fs::write(&ndjson_path, &text).map_err(|e| format!("cannot write {ndjson_path}: {e}"))?;

    let chrome_path = format!("{out_dir}/{stem}.json");
    let doc = flight::chrome_trace(
        rec,
        freq_hz,
        &session.region_names(),
        &host_spans(&spans::drain()),
    );
    std::fs::write(&chrome_path, doc.pretty())
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;

    let report = flight::check(&text).map_err(|e| format!("{ndjson_path}: {e}"))?;
    println!(
        "trace valid: {} events across {} cores, {} threads ({} switches, {} syscalls, \
         {} PMIs, {} migrations, {} injections, {} region exits, {} io waits on {} devices)",
        report.events,
        report.cores,
        report.threads,
        report.switch_ins,
        report.syscall_enters,
        report.pmis,
        report.migrations,
        report.injections,
        report.region_exits,
        report.io_blocks,
        report.io_devices
    );
    println!("wrote {ndjson_path}");
    println!("wrote {chrome_path} (load in Perfetto or chrome://tracing)");
    Ok(())
}

/// Runs the trace command end to end.
pub fn run(workload: &str, opts: &TraceOptions) -> Result<(), String> {
    if !opts.buf_slots.is_power_of_two() {
        return Err(format!(
            "--buf-slots must be a power of two, got {}",
            opts.buf_slots
        ));
    }
    let build_span = spans::start(format!("trace/build-{workload}"));
    let mut session = stock_session(workload, &EVENTS)?;
    build_span.finish();

    session.enable_flight(FlightConfig {
        buf_slots: opts.buf_slots as usize,
        categories: opts.categories,
    });
    let run_span = spans::start(format!("trace/run-{workload}"));
    let result = session.run();
    run_span.finish();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            // A faulting run still carries everything recorded up to the
            // fault (the kernel logs the fault event before erroring) —
            // export the partial timeline so it can be used to debug the
            // fault, then surface the error.
            let stem = format!("trace-{workload}-faulted");
            return match export_session(&session, &stem, &opts.out_dir) {
                Ok(()) => Err(format!(
                    "{workload} faulted mid-run: {e} (partial trace exported)"
                )),
                Err(x) => Err(format!(
                    "{workload} faulted mid-run: {e} (partial trace export failed too: {x})"
                )),
            };
        }
    };

    println!(
        "traced {workload}: {} guest cycles, {} context switches, {} syscalls",
        report.total_cycles, report.context_switches, report.syscalls
    );
    if report.warnings.any() {
        println!(
            "warnings: {} dropped records, {} rejected ranges, {} unfixed races",
            report.warnings.dropped_records,
            report.warnings.rejected_ranges,
            report.warnings.unfixed_races
        );
    }
    export_session(&session, &format!("trace-{workload}"), &opts.out_dir)
}

/// `limit-repro check-trace <file>`: validates a flight trace. NDJSON
/// files get the full conservation check; Chrome trace-event files (one
/// JSON document with `traceEvents`) get a parser round-trip plus shape
/// checks, so CI can smoke both exports with the same subcommand.
pub fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // A Chrome export parses as a single document (NDJSON has trailing
    // lines and fails here), so try that shape first.
    if let Ok(doc) = Json::parse(&text) {
        if doc.get("traceEvents").is_some() {
            return check_chrome(path, &doc);
        }
    }
    let r = flight::check(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: ok — {} events, {} cores, {} threads; \
         {}={} switch in/out, {}={} syscall enter/exit, \
         {} pmis, {} migrations, {} injections, {} region exits, \
         {}/{}/{} io enqueue/block/wake on {} devices",
        r.events,
        r.cores,
        r.threads,
        r.switch_ins,
        r.switch_outs,
        r.syscall_enters,
        r.syscall_exits,
        r.pmis,
        r.migrations,
        r.injections,
        r.region_exits,
        r.io_enqueues,
        r.io_blocks,
        r.io_wakes,
        r.io_devices
    );
    Ok(())
}

/// Validates a parsed Chrome trace-event document: non-empty, every event
/// carries `ph` and `pid`, durations and begin/end markers are paired per
/// track, and all three synthetic processes are present.
fn check_chrome(path: &str, doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: traceEvents is not an array"))?;
    if events.is_empty() {
        return Err(format!("{path}: empty traceEvents"));
    }
    let mut pids = std::collections::BTreeSet::new();
    let mut spans = 0u64;
    let mut instants = 0u64;
    let mut counters = 0u64;
    let mut depth: std::collections::HashMap<(u64, u64), i64> = std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: event {i} missing \"ph\""))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: event {i} missing \"pid\""))?;
        pids.insert(pid);
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match ph {
            "X" => {
                if ev.get("dur").is_none() {
                    return Err(format!("{path}: event {i} (ph X) missing \"dur\""));
                }
                spans += 1;
            }
            "i" => instants += 1,
            "C" => counters += 1,
            "B" => *depth.entry((pid, tid)).or_default() += 1,
            "E" => {
                let d = depth.entry((pid, tid)).or_default();
                *d -= 1;
                if *d < 0 {
                    return Err(format!(
                        "{path}: unmatched ph E on pid {pid} tid {tid} (event {i})"
                    ));
                }
            }
            "M" => {}
            other => return Err(format!("{path}: event {i} has unknown ph {other:?}")),
        }
    }
    if let Some(((pid, tid), d)) = depth.iter().find(|(_, &d)| d != 0) {
        return Err(format!(
            "{path}: {d} unterminated B span(s) on pid {pid} tid {tid}"
        ));
    }
    for want in [1u64, 2, 3] {
        if !pids.contains(&want) {
            return Err(format!("{path}: missing process track pid {want}"));
        }
    }
    println!(
        "{path}: ok — chrome trace round-trips: {} events ({spans} spans, \
         {instants} instants, {counters} counter samples) across pids {:?}",
        events.len(),
        pids
    );
    Ok(())
}

/// Parses a `--replay seed,index` value.
pub fn parse_replay_spec(value: &str) -> Result<(u64, u64), String> {
    let (seed, index) = value
        .split_once(',')
        .ok_or_else(|| format!("invalid --replay value {value:?} (want SEED,INDEX)"))?;
    let parse = |what: &str, s: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| format!("invalid --replay {what} {s:?}"))
    };
    Ok((parse("seed", seed)?, parse("index", index)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::harness::SessionBuilder;
    use sim_cpu::Reg;

    /// The trace command's fault path: a guest fault aborts the run, but
    /// the flight timeline recorded up to the fault must still export and
    /// validate (the kernel logs the fault event before erroring, and a
    /// thread left installed on its core is legal in the checker).
    #[test]
    fn faulted_session_still_exports_a_valid_partial_trace() {
        let mut b = SessionBuilder::new(1).events(&[EventKind::Cycles]);
        let mut asm = b.asm();
        asm.export("main");
        asm.burst(500);
        asm.rdpmc_clear(Reg::R1, 0); // destructive-read extension off: faults
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.enable_flight(FlightConfig {
            buf_slots: 1 << 12,
            categories: Categories::ALL,
        });
        s.spawn_instrumented("main", &[]).unwrap();
        let err = s.run().unwrap_err();
        assert_eq!(err.category(), "fault");
        let dir = std::env::temp_dir().join(format!("limit-trace-fault-{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        export_session(&s, "trace-fault-test", &dir).expect("partial export succeeds");
        let text = std::fs::read_to_string(format!("{dir}/trace-fault-test.ndjson")).unwrap();
        assert!(
            text.contains("\"fault\""),
            "exported timeline records the fault event"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
