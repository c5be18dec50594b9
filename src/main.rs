//! The `limit-repro` command-line driver: run any reproduced experiment
//! (or all of them) from one binary.
//!
//! ```text
//! limit-repro list                  # what can run
//! limit-repro run e1                # one experiment
//! limit-repro run all               # the full evaluation, sequentially
//! limit-repro run all --jobs 4      # ... on 4 host threads
//! limit-repro run all --check results/   # fail on any table change
//! ```
//!
//! `run <name>` is the only way to print an experiment. Experiments are
//! deterministic and independent, so `run all` can execute them
//! concurrently on `sim_core::parallel`'s bounded worker pool. Tables are
//! collected per experiment and printed in experiment order when
//! everything finishes, so stdout is **byte-identical** for every `--jobs`
//! value. Wall-time lines go to stderr (they vary run to run), and each
//! experiment also writes a machine-readable `results/<name>.json`. Those
//! files hold only the tables, so `--check` can byte-compare them; host
//! wall times go to the `results/run-summary.json` roll-up.

use sim_core::json::Json;
use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

mod fleet_cmd;
mod monitor;
mod trace;
mod trust_cmd;
mod whatif_cmd;

const EXPERIMENTS: [(&str, &str); 19] = [
    ("e1", "read-cost table (the headline)"),
    ("e2", "instrumentation overhead on mysqld"),
    ("e3", "virtualized-count exactness"),
    ("e4", "read-race ablation (+ seqlock arm)"),
    ("e5", "sampling vs precise attribution"),
    (
        "e6",
        "mysqld critical-section histograms + bottleneck ranking",
    ),
    ("e7", "synchronization share vs thread count"),
    ("e8", "firefox task-class characterization"),
    ("e9", "apache per-request accounting"),
    ("e10", "the three hardware-counter enhancements"),
    ("e11", "extension: co-location interference"),
    ("e12", "extension: lock-striping what-if study"),
    ("e13", "live-telemetry streaming overhead"),
    ("e14", "virtualization torture sweep (injection + oracle)"),
    (
        "e15",
        "fleet saturation sweep (open-loop arrival-rate knee)",
    ),
    (
        "e16",
        "causal what-if validation (planted lock/memory bottlenecks)",
    ),
    (
        "e17",
        "event-trust matrix slice (event x access method x disturbance)",
    ),
    (
        "e18",
        "I/O-wait observability (io-bound classification + device ranking)",
    ),
    (
        "kernels",
        "microbenchmark suite characterization + prefetch ablation",
    ),
];

/// Runs one experiment and returns its rendered tables (header included).
/// Printing is deferred to the caller so experiments can run concurrently
/// while stdout stays byte-identical to a sequential run.
fn run_one(name: &str) -> Result<String, String> {
    let fail = |e: sim_core::SimError| e.to_string();
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "\n########## {name} ##########");
    match name {
        "e1" => {
            let rows = bench::e1::run(5_000).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e1::table(&rows));
            let multi = bench::e1::run_multi(2_000).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e1::multi_table(&multi));
            if let (Some(limit), Some(perf)) = (
                bench::e1::row(&rows, "limit"),
                bench::e1::row(&rows, "perf"),
            ) {
                let _ = writeln!(
                    w,
                    "LiMiT: {:.1} ns/read; perf syscall: {:.1} ns/read ({:.0}x slower).",
                    limit.nanos,
                    perf.nanos,
                    perf.nanos / limit.nanos
                );
            }
        }
        "e2" => {
            let rows = bench::e2::run(&[1, 4, 8, 16], 120, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e2::table(&rows));
            if let (Some(l), Some(p)) = (
                bench::e2::overhead_of(&rows, 16, "limit"),
                bench::e2::overhead_of(&rows, 16, "perf"),
            ) {
                let _ = writeln!(
                    w,
                    "At 16 threads: limit adds {:.1}% runtime; perf adds {:.1}%.",
                    l * 100.0,
                    p * 100.0
                );
            }
        }
        "e3" => {
            let rows = bench::e3::run().map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e3::table(&rows));
            let (virt, rdtsc) = bench::e3::wallclock_comparison().map_err(fail)?;
            let _ = writeln!(w, "virtualized: {virt} cycles; rdtsc: {rdtsc} cycles");
        }
        "e4" => {
            let rows = bench::e4::run_all().map_err(fail)?;
            let refs: Vec<_> = rows.iter().collect();
            let _ = writeln!(w, "{}", bench::e4::table_of(&refs));
            let (on, off, seq) = (&rows[0], &rows[1], &rows[2]);
            let _ = writeln!(
                w,
                "With the fix-up off, {} of {} reads were corrupted ({} races seen by the kernel).",
                off.violations, off.reads, off.unfixed_races
            );
            let _ = writeln!(
                w,
                "With the fix-up on, {} corrupted reads across {} rewinds.",
                on.violations, on.fixups
            );
            let _ = writeln!(
                w,
                "The seqlock protocol self-corrects in userspace: {} corrupted reads with no \
                 kernel fix-up.",
                seq.violations
            );
        }
        "e5" => {
            let cfg = workloads::firefox::FirefoxConfig::default();
            let rows = bench::e5::run(&cfg, &[1_024, 8_192, 65_536]).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e5::sweep_table(&rows));
            let _ = writeln!(w, "{}", bench::e5::class_table(&rows[1]));
        }
        "e6" => {
            let cfg = workloads::mysqld::MysqlConfig {
                threads: 16,
                queries_per_thread: 150,
                ..Default::default()
            };
            let result = bench::e6::run(&cfg, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e6::table(&result));
            let _ = writeln!(w, "{}", bench::e6::histograms(&result));
            let _ = writeln!(
                w,
                "Synchronization share of user cycles: {:.1}%",
                result.report.sync_share() * 100.0
            );
            // The title operation: rank the instrumented regions and name
            // the bottleneck.
            let records = result.run.session.all_records().map_err(fail)?;
            let ranking = analysis::BottleneckReport::from_records(
                &records,
                &result.run.session.regions,
                result.report.total_cycles,
                0,
            );
            let _ = writeln!(
                w,
                "\n{}",
                ranking.table("bottleneck ranking (share of user cycles)")
            );
            if let Some(top) = ranking.heaviest() {
                let _ = writeln!(
                    w,
                    "identified bottleneck: `{}` ({:.1}% of cycles)",
                    top.name,
                    top.share * 100.0
                );
            }
        }
        "e7" => {
            let rows = bench::e7::run(&[1, 2, 4, 8, 16, 32], 100, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e7::table(&rows));
            if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
                let _ = writeln!(
                    w,
                    "Total sync share (busy + blocked) grows from {:.1}% at {} thread(s) to \
                     {:.1}% at {} threads.",
                    first.combined_share * 100.0,
                    first.threads,
                    last.combined_share * 100.0,
                    last.threads
                );
            }
        }
        "e8" => {
            let rows =
                bench::e8::run(&workloads::firefox::FirefoxConfig::default(), 4).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e8::table(&rows));
        }
        "e9" => {
            let result =
                bench::e9::run(&workloads::apache::ApacheConfig::default(), 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e9::table(&result));
            let h = &result.handler_sorted;
            if !h.is_empty() {
                let p50 = h[h.len() / 2];
                let p99 = h[(h.len() * 99 / 100).min(h.len() - 1)];
                let _ = writeln!(
                    w,
                    "handler tail: p50 {} cycles / {} misses; p99 {} cycles / {} misses",
                    p50.0, p50.1, p99.0, p99.1
                );
            }
        }
        "e10" => {
            let d = bench::e10::run_destructive(2_000).map_err(fail)?;
            let sv = bench::e10::run_self_virtualizing().map_err(fail)?;
            let t = bench::e10::run_tag_filter(500).map_err(fail)?;
            for table in bench::e10::tables(&d, &sv, &t) {
                let _ = writeln!(w, "{table}");
            }
            let _ = writeln!(
                w,
                "1) destructive reads cut delta-measurement cost {:.1}x;",
                d.pair_cycles / d.destructive_cycles.max(0.1)
            );
            let _ = writeln!(
                w,
                "2) self-virtualizing counters eliminate all {} overflow PMIs;",
                sv.0.pmis
            );
            let _ = writeln!(
                w,
                "3) tag filtering removes the {:.1}-instruction probe self-pollution \
                 (measured {:.1} vs true {}).",
                t.untagged_mean - t.true_work as f64,
                t.tagged_mean,
                t.true_work
            );
        }
        "e11" => {
            let rows = bench::e11::run(8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e11::table(&rows));
            if let Some(worst) = rows
                .iter()
                .filter(|r| r.count > 0)
                .max_by(|a, b| a.slowdown().total_cmp(&b.slowdown()))
            {
                let _ = writeln!(
                    w,
                    "Worst-hit class: `{}` at {:.2}x (LLC misses {:.1} -> {:.1} per task).",
                    worst.class,
                    worst.slowdown(),
                    worst.alone_llc,
                    worst.coloc_llc
                );
            }
        }
        "e12" => {
            let rows = bench::e12::run(&[1, 2, 4, 16, 64, 256], 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e12::table(&rows));
            if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
                let _ = writeln!(
                    w,
                    "Answer: striping from {} to {} locks lifts throughput {:.1}x and cuts the",
                    first.stripes,
                    last.stripes,
                    last.ops_per_mcycle / first.ops_per_mcycle
                );
                let _ = writeln!(
                    w,
                    "sync share from {:.0}% to {:.0}% — measured with ~35-cycle probes on every \
                     acquire.",
                    first.sync_share * 100.0,
                    last.sync_share * 100.0
                );
            }
        }
        "e13" => {
            let rows = bench::e13::run(&[1, 2, 4, 8], 120, 8).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e13::table(&rows));
            if let Some(ratio) = bench::e13::stream_vs_aggregate(&rows, 8) {
                let _ = writeln!(
                    w,
                    "stream overhead is {ratio:.2}x aggregate overhead at 8 threads"
                );
            }
        }
        "e14" => {
            // Per-arm wall time and schedules/sec land in the span registry
            // (bench::spans), not on stderr; `run` folds them into
            // run-summary.json's `timings` object.
            let rows = bench::e14::run(300).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e14::table(&rows));
            let (on, off, spill) = (&rows[0], &rows[1], &rows[2]);
            if let Some(repro) = &off.repro {
                let _ = writeln!(w, "shrunk fixup-off repro:\n{repro}");
            }
            let _ = writeln!(
                w,
                "Fix-up on: {} wrong reads across {} checked reads and {} injected disturbances.",
                on.divergences, on.checks, on.fired
            );
            let _ = writeln!(
                w,
                "Fix-up off: {} of {} schedules diverged ({:.1}/1k) — the E4 race, found by \
                 enumeration.",
                off.divergent_schedules, off.schedules, off.divergent_per_1k
            );
            let _ = writeln!(
                w,
                "Spill arm: {:.1}/1k schedules diverge with the fix-up on under forced \
                 mid-sequence hardware spills.",
                spill.divergent_per_1k
            );
        }
        "e15" => {
            let fracs = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
            let r = bench::e15::run(32, &fracs, 2)?;
            let _ = writeln!(w, "{}", bench::e15::table(&r));
            match r.knee {
                Some(k) => {
                    let _ = writeln!(
                        w,
                        "saturation knee at {k:.2} arrivals/Mcycle ({:.2}x of node capacity \
                         {:.2}/Mcycle)",
                        k / r.capacity_rate,
                        r.capacity_rate
                    );
                }
                None => {
                    let _ = writeln!(w, "no knee inside the swept range");
                }
            }
            if let Some(pop) = &r.top_population {
                let _ = writeln!(w, "fleet-wide bottleneck: {pop}");
            }
            let _ = writeln!(
                w,
                "Node capacity: {:.2} sessions/Mcycle ({} slots, mean service {:.0} kcycles).",
                r.capacity_rate,
                fleet::FleetConfig::default().slots,
                r.mean_service / 1e3
            );
        }
        "e16" => {
            let r = bench::e16::run(480, 2)?;
            let _ = writeln!(w, "{}", bench::e16::table(&r));
            for (shape, report) in [("lock", &r.lock), ("memory", &r.memory)] {
                for f in &report.findings {
                    let _ = writeln!(
                        w,
                        "{shape} finding: {}: {} — {}",
                        f.region, f.kind, f.detail
                    );
                }
            }
            if !r.all_ok() {
                return Err(format!(
                    "e16 causal verdicts failed:\n{}",
                    bench::e16::table(&r)
                ));
            }
        }
        "e17" => {
            // Per-cell wall times land in the span registry as
            // trust/<event>/<method>; `run` folds them into
            // run-summary.json's `timings` object.
            let rows = bench::e17::run(10).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::e17::table(&rows));
            if !bench::e17::contract_holds(&rows) {
                return Err(format!(
                    "e17 trust contract failed:\n{}",
                    bench::e17::table(&rows)
                ));
            }
        }
        "e18" => {
            let r = bench::e18::run(24, 2)?;
            let _ = writeln!(w, "{}", bench::e18::table(&r));
            let _ = writeln!(w, "{}", bench::e18::wait_table(&r));
            for f in &r.logstore_findings {
                let _ = writeln!(
                    w,
                    "logstore finding: {}: {} — {}",
                    f.region, f.kind, f.detail
                );
            }
            if !r.all_ok() {
                return Err(format!(
                    "e18 I/O observability contract failed:\n{}",
                    bench::e18::table(&r)
                ));
            }
        }
        "kernels" => {
            let rows = bench::kernels_char::run(20_000, 1 << 20).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::kernels_char::table(&rows));
            let ab = bench::kernels_char::prefetch_ablation(20_000, 1 << 20).map_err(fail)?;
            let _ = writeln!(w, "{}", bench::kernels_char::prefetch_table(&ab));
        }
        other => return Err(format!("unknown experiment {other:?}; try `list`")),
    }
    Ok(out)
}

/// Outcome of one experiment in a `run` invocation.
struct ExperimentRun {
    name: &'static str,
    wall_ms: f64,
    result: Result<String, String>,
}

/// Runs `names` on `jobs` worker threads, then prints tables in experiment
/// order and writes `<out_dir>/*.json`. With `check` set, nothing is
/// printed or written: each experiment's JSON is regenerated in memory
/// and byte-compared against `<check>/<name>.json` instead. Returns
/// failure if any experiment errored or differed.
fn run_experiments(
    names: Vec<&'static str>,
    jobs: usize,
    out_dir: &str,
    check: Option<&str>,
) -> ExitCode {
    let started = Instant::now();
    let runs: Vec<ExperimentRun> = sim_core::parallel::parmap_with(jobs, names, |name| {
        let span = bench::spans::start(format!("exp/{name}"));
        let result = run_one(name);
        ExperimentRun {
            name,
            wall_ms: span.finish(),
            result,
        }
    });
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Some(dir) = check {
        return match check_result_files(&runs, dir) {
            Ok(()) => {
                println!("{dir}: {} experiment files match", runs.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = false;
    for run in &runs {
        match &run.result {
            Ok(tables) => print!("{tables}"),
            Err(e) => {
                failed = true;
                eprintln!("error: {} failed: {e}", run.name);
            }
        }
    }
    // Per-experiment wall times live in run-summary.json's `timings`
    // object now; stderr keeps only the one-line total.
    eprintln!(
        "[timing] total    {total_ms:>10.1} ms ({} experiments, {jobs} job{})",
        runs.len(),
        if jobs == 1 { "" } else { "s" }
    );

    let timings = bench::spans::drain();
    if let Err(e) = write_result_files(&runs, jobs, total_ms, &timings, out_dir) {
        eprintln!("warning: could not write {out_dir}/*.json: {e}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One experiment's `<name>.json` document. Host wall time stays out (it
/// lives in `run-summary.json`), so the file changes only when the
/// experiment's tables do.
fn experiment_json(name: &str, tables: &str) -> String {
    Json::object()
        .set("schema", 1u64)
        .set("experiment", name)
        .set("tables", tables)
        .pretty()
}

/// `run ... --check <dir>`: every experiment must have succeeded and
/// regenerate `<dir>/<name>.json` byte for byte. `run-summary.json`
/// carries host timings and is not compared. Names the first experiment
/// (in experiment order) that failed or differs.
fn check_result_files(runs: &[ExperimentRun], dir: &str) -> Result<(), String> {
    for run in runs {
        let tables = run
            .result
            .as_ref()
            .map_err(|e| format!("{} failed: {e}", run.name))?;
        let path = format!("{dir}/{}.json", run.name);
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read {path}: {e}", run.name))?;
        if committed != experiment_json(run.name, tables) {
            return Err(format!(
                "{} differs from {path} (re-run `run {}` to see the new tables)",
                run.name, run.name
            ));
        }
    }
    Ok(())
}

/// Writes one `<out_dir>/<name>.json` per successful experiment and a
/// `<out_dir>/run-summary.json` roll-up with wall times and the drained
/// self-profiling spans (the former `[timing]` stderr lines).
fn write_result_files(
    runs: &[ExperimentRun],
    jobs: usize,
    total_ms: f64,
    timings: &[bench::spans::SpanRecord],
    out_dir: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    for run in runs {
        if let Ok(tables) = &run.result {
            std::fs::write(
                format!("{out_dir}/{}.json", run.name),
                experiment_json(run.name, tables),
            )?;
        }
    }
    let summary = Json::object()
        .set("schema", 1u64)
        .set("jobs", jobs)
        .set("total_wall_ms", total_ms)
        .set(
            "experiments",
            Json::Array(
                runs.iter()
                    .map(|run| {
                        Json::object()
                            .set("name", run.name)
                            .set("wall_ms", run.wall_ms)
                            .set("ok", run.result.is_ok())
                    })
                    .collect(),
            ),
        )
        .set(
            "timings",
            Json::Array(
                timings
                    .iter()
                    .map(|s| {
                        let mut o = Json::object()
                            .set("name", s.name.as_str())
                            .set("start_ms", s.start_ms)
                            .set("wall_ms", s.wall_ms);
                        for (key, value) in &s.meta {
                            o = o.set(key.as_str(), *value);
                        }
                        o
                    })
                    .collect(),
            ),
        );
    std::fs::write(format!("{out_dir}/run-summary.json"), summary.pretty())
}

/// `limit-repro stat <workload>`: a perf-stat-like summary for one of the
/// synthetic applications, measured with LiMiT counters.
fn stat_workload(which: &str) -> Result<(), String> {
    use analysis::metrics::{per_kilo_instruction, ratio};
    use sim_cpu::EventKind;
    use sim_os::ThreadStats;

    const EVENTS: [EventKind; 4] = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::LlcMisses,
        EventKind::BranchMisses,
    ];
    let fail = |e: sim_core::SimError| e.to_string();
    let mut session = trace::stock_session(which, &EVENTS)?;
    let report = session.run().map_err(fail)?;

    let total = |i: usize| session.counter_grand_total(i).map_err(fail);
    let (cycles, instrs, llc, bmiss) = (total(0)?, total(1)?, total(2)?, total(3)?);
    let freq = session.freq();
    println!(
        "
 perf-stat-style summary for `{which}` (LiMiT virtualized counters):
"
    );
    println!(
        "   {cycles:>16}  cycles                 # {:.3} ms guest time",
        sim_core::Cycles::new(report.total_cycles).to_millis(freq)
    );
    println!(
        "   {instrs:>16}  instructions           # {:.2} IPC",
        ratio(instrs, cycles)
    );
    println!(
        "   {llc:>16}  llc-misses             # {:.2} MPKI",
        per_kilo_instruction(llc, instrs)
    );
    println!(
        "   {bmiss:>16}  branch-misses          # {:.2} PKI",
        per_kilo_instruction(bmiss, instrs)
    );
    println!(
        "
   kernel: {} ctx switches, {} preemptions, {} migrations, {} syscalls, {} futex waits",
        report.context_switches,
        report.preemptions,
        report.migrations,
        report.syscalls,
        report.futex.0
    );
    println!(
        "
per-thread accounting:
{}",
        ThreadStats::collect(&session.kernel)
    );
    Ok(())
}

/// `limit-repro torture`: run the counter-virtualization torture harness
/// directly (the CI smoke entry point; E14 is the table-producing wrapper).
///
/// Exit status encodes the harness contract: the fixup-on arm must be
/// divergence-free, and the fixup-off arm must rediscover the read race
/// (zero findings there means the harness itself lost its teeth).
fn torture_cmd(args: &[String]) -> Result<ExitCode, String> {
    use torture::{render_repro, run_arm, shrink, TortureConfig};

    let mut cfg = TortureConfig::default();
    let mut fixup = "both".to_string();
    let mut replay: Option<(u64, u64)> = None;
    let mut out_dir = "results".to_string();
    for (key, value) in parse_flags(
        args,
        &["schedules", "seed", "fixup", "spill", "replay", "out-dir"],
    )? {
        match key {
            "schedules" => cfg.schedules = parse_num(key, value)?,
            "seed" => cfg.seed = parse_num(key, value)?,
            "fixup" => match value {
                "on" | "off" | "both" => fixup = value.to_string(),
                other => return Err(format!("invalid --fixup value {other:?} (on|off|both)")),
            },
            "spill" => cfg.spill = parse_num(key, value)?,
            "replay" => replay = Some(trace::parse_replay_spec(value)?),
            "out-dir" => out_dir = value.to_string(),
            _ => unreachable!(),
        }
    }

    let fail = |e: sim_core::SimError| e.to_string();
    if let Some((seed, index)) = replay {
        return torture_replay(cfg, &fixup, seed, index, &out_dir);
    }
    let arms: &[bool] = match fixup.as_str() {
        "on" => &[true],
        "off" => &[false],
        _ => &[true, false],
    };
    let mut ok = true;
    for &arm_fixup in arms {
        let label = if arm_fixup { "fixup-on" } else { "fixup-off" };
        let span = bench::spans::start(format!("torture/{label}"));
        let report = run_arm(&cfg, arm_fixup).map_err(fail)?;
        let secs = (span.elapsed_ms() / 1e3).max(1e-9);
        let rate = report.schedules as f64 / secs;
        span.meta("schedules_per_sec", rate).finish();
        println!(
            "{label}: {} schedules, {} reads checked, {} injections fired, \
             {} divergent schedules ({} wrong reads)",
            report.schedules,
            report.checks,
            report.fired,
            report.divergent_schedules,
            report.divergences
        );
        eprintln!("[span] torture/{label:<9} {rate:>8.0} schedules/sec");
        if arm_fixup {
            if report.divergences > 0 {
                ok = false;
                eprintln!("error: fixup-on arm diverged — virtualization bug");
                if let Some(failing) = &report.first_failure {
                    let minimal = shrink(&cfg, arm_fixup, failing).map_err(fail)?;
                    println!(
                        "{}",
                        render_repro(&cfg, arm_fixup, failing, &minimal).map_err(fail)?
                    );
                }
            }
        } else if report.divergences == 0 {
            ok = false;
            eprintln!("error: fixup-off arm found no divergence — harness has lost its teeth");
        } else if let Some(failing) = &report.first_failure {
            let minimal = shrink(&cfg, arm_fixup, failing).map_err(fail)?;
            println!(
                "shrunk repro of the first fixup-off failure:\n{}",
                render_repro(&cfg, arm_fixup, failing, &minimal).map_err(fail)?
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `limit-repro torture --replay SEED,INDEX`: regenerate one schedule from
/// the torture harness, shrink it to a locally-minimal failing injection
/// set if it diverges, re-run that set under the flight recorder, and
/// export the trace — the injections and any divergence render as instants
/// on the failing thread's timeline.
fn torture_replay(
    mut cfg: torture::TortureConfig,
    fixup: &str,
    seed: u64,
    index: u64,
    out_dir: &str,
) -> Result<ExitCode, String> {
    let fail = |e: sim_core::SimError| e.to_string();
    cfg.seed = seed;
    // Replays chase failures, which live in the fixup-off arm unless the
    // caller explicitly pins --fixup on.
    let arm_fixup = fixup == "on";
    let span = bench::spans::start(format!("torture/replay-{seed},{index}"));
    let r =
        torture::replay(&cfg, arm_fixup, index, flight::FlightConfig::default()).map_err(fail)?;
    span.finish();
    println!(
        "replayed schedule {index} (seed {seed}, fixup {}): {} injections, \
         {} oracle checks, {} divergences",
        if arm_fixup { "on" } else { "off" },
        r.injections.len(),
        r.checks,
        r.divergences.len()
    );
    for inj in &r.injections {
        println!("  {inj}");
    }
    for d in &r.divergences {
        println!(
            "  {}: read of {:?} in range [{}, {}) returned {} (expected {}) at cycle {}",
            d.tid, d.event, d.range.0, d.range.1, d.actual, d.expected, d.clock
        );
    }
    trace::export_session(&r.session, &format!("trace-replay-{seed}-{index}"), out_dir)?;
    Ok(ExitCode::SUCCESS)
}

fn usage() {
    let w = workloads::Workload::ALL.join("|");
    eprintln!(
        "usage: limit-repro <command>
  list                                                  what can run
  run <experiment|all> [--jobs N] [--out-dir DIR]       run experiments
      [--check DIR]                                     compare against DIR/<exp>.json
  stat <{w}>
                                                        perf-stat summary
  monitor <{w}>
          [--threads N] [--queries N] [--interval CYCLES] [--capacity N] [--out-dir DIR]
                                                        live telemetry stream
                                                        (I/O-bound workloads add Slow I/O)
  fleet <{w}>
        [--instances N] [--arrival-rate R] [--burst F]
        [--jobs N] [--slots N] [--threads N] [--queries N] [--seed S]
        [--interval CYCLES] [--capacity N] [--out-dir DIR]
                                                        open-loop fleet simulation
                                                        with hierarchical roll-up
  whatif <{w}>
         [--knobs K1,K2,...] [--scale F] [--jobs N]
         [--threads N] [--queries N] [--interval CYCLES] [--capacity N]
         [--stripes N] [--buckets N] [--hold-rmws N] [--bufpool BYTES]
         [--out-dir DIR]                                causal what-if engine:
                                                        per-region knob sensitivity
                                                        (workload settings are rejected
                                                        on workloads without them)
  check-telemetry <file>                                validate NDJSON output
  torture [--schedules N] [--seed S] [--fixup on|off|both] [--spill true|false]
          [--replay SEED,INDEX] [--out-dir DIR]         virtualization torture sweep
                                                        (--replay: trace one shrunk schedule)
  trust [--schedules N] [--seed S] [--jobs N] [--events E1,E2,...]
        [--methods M1,M2,...] [--disturbs D1,D2,...] [--out-dir DIR]
                                                        event-trust matrix: verdict per
                                                        event x access method x disturbance
  trace <{w}>
        [--out-dir DIR] [--buf-slots N] [--categories LIST]
                                                        flight-record a workload run
  check-trace <file>                                    validate an NDJSON flight trace"
    );
}

/// Parses `--key value` / `--key=value` pairs from an argument tail,
/// rejecting keys outside `allowed`.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(rest) = arg.strip_prefix("--") else {
            return Err(format!("unknown argument {arg:?}"));
        };
        let (key, value) = match rest.split_once('=') {
            Some((k, v)) => (k, v),
            None => (
                rest,
                it.next()
                    .ok_or_else(|| format!("--{rest} needs a value"))?
                    .as_str(),
            ),
        };
        if !allowed.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        out.push((key, value));
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("invalid --{key} value {value:?}"))
}

/// A `--jobs` value: `0` means one worker per host core.
fn parse_jobs(key: &str, value: &str) -> Result<usize, String> {
    match parse_num(key, value)? {
        0 => Ok(sim_core::parallel::default_jobs()),
        n => Ok(n),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if let Err(e) = parse_flags(&args[1..], &[]) {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
            println!("available experiments:");
            for (name, what) in EXPERIMENTS {
                println!("  {name:<8} {what}");
            }
            println!("workloads: {}", workloads::Workload::ALL.join(" "));
            ExitCode::SUCCESS
        }
        Some("stat") => {
            let Some(which) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            if let Err(e) = parse_flags(&args[2..], &[]) {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
            match stat_workload(which) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("run") => {
            let Some(which) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            let mut jobs = 1usize;
            let mut out_dir = "results".to_string();
            let mut check = None;
            match parse_flags(&args[2..], &["jobs", "out-dir", "check"]) {
                Ok(flags) => {
                    for (key, value) in flags {
                        match key {
                            "jobs" => match parse_jobs(key, value) {
                                Ok(n) => jobs = n,
                                Err(e) => {
                                    eprintln!("error: {e}");
                                    return ExitCode::FAILURE;
                                }
                            },
                            "out-dir" => out_dir = value.to_string(),
                            "check" => check = Some(value.to_string()),
                            _ => unreachable!(),
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
            }
            let names: Vec<&'static str> = if which == "all" {
                EXPERIMENTS.iter().map(|&(n, _)| n).collect()
            } else {
                // Resolve through the table so the name has 'static life and
                // unknown names fail up front.
                match EXPERIMENTS.iter().find(|&&(n, _)| n == which) {
                    Some(&(n, _)) => vec![n],
                    None => {
                        eprintln!("error: unknown experiment {which:?}; try `list`");
                        return ExitCode::FAILURE;
                    }
                }
            };
            run_experiments(names, jobs, &out_dir, check.as_deref())
        }
        Some("monitor") => {
            let Some(which) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            let mut opts = monitor::MonitorOptions::default();
            let flags = match parse_flags(
                &args[2..],
                &["threads", "queries", "interval", "capacity", "out-dir"],
            ) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
            };
            for (key, value) in flags {
                let parsed: Result<(), String> = (|| {
                    match key {
                        "threads" => opts.threads = parse_num(key, value)?,
                        "queries" => opts.queries = parse_num(key, value)?,
                        "interval" => opts.interval = parse_num(key, value)?,
                        "capacity" => opts.capacity = parse_num(key, value)?,
                        "out-dir" => opts.out_dir = value.to_string(),
                        _ => unreachable!(),
                    }
                    Ok(())
                })();
                if let Err(e) = parsed {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match monitor::run(which, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fleet") => {
            let Some(which) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            let mut opts = fleet_cmd::FleetOptions::default();
            let flags = match parse_flags(
                &args[2..],
                &[
                    "instances",
                    "threads",
                    "queries",
                    "arrival-rate",
                    "burst",
                    "slots",
                    "seed",
                    "jobs",
                    "interval",
                    "capacity",
                    "out-dir",
                ],
            ) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
            };
            for (key, value) in flags {
                let parsed: Result<(), String> = (|| {
                    match key {
                        "instances" => opts.instances = parse_num(key, value)?,
                        "threads" => opts.threads = parse_num(key, value)?,
                        "queries" => opts.queries = parse_num(key, value)?,
                        "arrival-rate" => opts.arrival_rate = parse_num(key, value)?,
                        "burst" => opts.burst = parse_num(key, value)?,
                        "slots" => opts.slots = parse_num(key, value)?,
                        "seed" => opts.seed = parse_num(key, value)?,
                        "jobs" => opts.jobs = parse_jobs(key, value)?,
                        "interval" => opts.interval = parse_num(key, value)?,
                        "capacity" => opts.capacity = parse_num(key, value)?,
                        "out-dir" => opts.out_dir = value.to_string(),
                        _ => unreachable!(),
                    }
                    Ok(())
                })();
                if let Err(e) = parsed {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match fleet_cmd::run(which, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("whatif") => {
            let Some(which) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            let mut opts = whatif_cmd::WhatifOptions::default();
            let flags = match parse_flags(
                &args[2..],
                &[
                    "threads",
                    "queries",
                    "knobs",
                    "scale",
                    "jobs",
                    "interval",
                    "capacity",
                    "stripes",
                    "buckets",
                    "hold-rmws",
                    "bufpool",
                    "out-dir",
                ],
            ) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
            };
            for (key, value) in flags {
                let parsed: Result<(), String> = (|| {
                    match key {
                        "threads" => opts.threads = parse_num(key, value)?,
                        "queries" => opts.queries = parse_num(key, value)?,
                        "knobs" => opts.knobs = Some(value.to_string()),
                        "scale" => opts.scale = parse_num(key, value)?,
                        "jobs" => opts.jobs = parse_jobs(key, value)?,
                        "interval" => opts.interval = parse_num(key, value)?,
                        "capacity" => opts.capacity = parse_num(key, value)?,
                        "stripes" => opts.stripes = Some(parse_num(key, value)?),
                        "buckets" => opts.buckets = Some(parse_num(key, value)?),
                        "hold-rmws" => opts.hold_rmws = Some(parse_num(key, value)?),
                        "bufpool" => opts.bufpool = Some(parse_num(key, value)?),
                        "out-dir" => opts.out_dir = value.to_string(),
                        _ => unreachable!(),
                    }
                    Ok(())
                })();
                if let Err(e) = parsed {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match whatif_cmd::run(which, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("trust") => {
            let mut opts = trust_cmd::TrustOptions::default();
            let flags = match parse_flags(
                &args[1..],
                &[
                    "schedules",
                    "seed",
                    "jobs",
                    "events",
                    "methods",
                    "disturbs",
                    "out-dir",
                ],
            ) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
            };
            for (key, value) in flags {
                let parsed: Result<(), String> = (|| {
                    match key {
                        "schedules" => opts.cfg.schedules = parse_num(key, value)?,
                        "seed" => opts.cfg.seed = parse_num(key, value)?,
                        "jobs" => opts.jobs = parse_jobs(key, value)?,
                        "events" => {
                            opts.events = value
                                .split(',')
                                .map(|s| {
                                    torture::matrix::event_by_mnemonic(s.trim())
                                        .ok_or_else(|| format!("unknown event {s:?}"))
                                })
                                .collect::<Result<_, _>>()?
                        }
                        "methods" => {
                            opts.methods = value
                                .split(',')
                                .map(|s| {
                                    torture::matrix::AccessMethod::parse(s.trim())
                                        .ok_or_else(|| format!("unknown method {s:?}"))
                                })
                                .collect::<Result<_, _>>()?
                        }
                        "disturbs" => {
                            opts.disturbs = value
                                .split(',')
                                .map(|s| {
                                    torture::matrix::Disturb::parse(s.trim())
                                        .ok_or_else(|| format!("unknown disturbance {s:?}"))
                                })
                                .collect::<Result<_, _>>()?
                        }
                        "out-dir" => opts.out_dir = value.to_string(),
                        _ => unreachable!(),
                    }
                    Ok(())
                })();
                if let Err(e) = parsed {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match trust_cmd::run(&opts) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("torture") => match torture_cmd(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                ExitCode::FAILURE
            }
        },
        Some("trace") => {
            let Some(which) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            let mut opts = trace::TraceOptions::default();
            let flags = match parse_flags(&args[2..], &["out-dir", "buf-slots", "categories"]) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
            };
            for (key, value) in flags {
                let parsed: Result<(), String> = (|| {
                    match key {
                        "out-dir" => opts.out_dir = value.to_string(),
                        "buf-slots" => opts.buf_slots = parse_num(key, value)?,
                        "categories" => opts.categories = flight::Categories::parse(value)?,
                        _ => unreachable!(),
                    }
                    Ok(())
                })();
                if let Err(e) = parsed {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match trace::run(which, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("check-trace") => {
            let Some(path) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            if let Err(e) = parse_flags(&args[2..], &[]) {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
            match trace::check(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("check-telemetry") => {
            let Some(path) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            if let Err(e) = parse_flags(&args[2..], &[]) {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
            match monitor::check(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            usage();
            ExitCode::FAILURE
        }
    }
}
