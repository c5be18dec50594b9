//! The `limit-repro` command-line driver: run any reproduced experiment
//! (or all of them) from one binary.
//!
//! ```text
//! limit-repro list                  # what can run
//! limit-repro run <name>            # one experiment
//! limit-repro run all               # the full evaluation, sequentially
//! limit-repro run all --jobs 4      # ... on 4 host threads
//! limit-repro run all --check results/   # fail on any table change
//! ```
//!
//! The binary only dispatches: each command parses its operand and flags,
//! then calls one function, and `main` prints every error in one place.
//! The experiments themselves are the rows of `bench::experiments::ALL`.
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

use bench::experiments::{self, Experiment};
use sim_core::json::Json;
use std::env;
use std::process::ExitCode;
use std::time::Instant;

mod fleet_cmd;
mod monitor;
mod trace;
mod trust_cmd;
mod whatif_cmd;

/// Default `--out-dir` of every surface except `run`: ad-hoc outputs stay
/// out of `results/`, which holds only the gated experiment tables.
const OUT_DIR: &str = "out";

/// How a command failed. `main` prints it and exits 1.
enum CliError {
    /// A missing operand or an unknown command: the usage text alone.
    Usage,
    /// Bad flag syntax: the error, then the usage text.
    Syntax(String),
    /// A bad value or a failed run: the error alone.
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Failed(e)
    }
}

impl From<sim_core::SimError> for CliError {
    fn from(e: sim_core::SimError) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// Outcome of one experiment in a `run` invocation.
struct ExperimentRun {
    exp: &'static Experiment,
    wall_ms: f64,
    result: Result<String, String>,
}

/// Runs `chosen` on `jobs` worker threads, then prints their output in
/// experiment order and writes `<out_dir>/*.json`. With `check` set,
/// nothing is printed or written: each experiment's JSON is regenerated
/// in memory and byte-compared against `<check>/<name>.json` instead.
/// Fails if any experiment errored or differed.
fn run_experiments(
    chosen: Vec<&'static Experiment>,
    jobs: usize,
    out_dir: &str,
    check: Option<&str>,
) -> Result<ExitCode, CliError> {
    let started = Instant::now();
    let runs: Vec<ExperimentRun> = sim_core::parallel::parmap_with(jobs, chosen, |exp| {
        let span = bench::spans::start(format!("exp/{}", exp.name));
        let result = exp.run();
        ExperimentRun {
            exp,
            wall_ms: span.finish(),
            result,
        }
    });
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Some(dir) = check {
        // `run-summary.json` carries host timings and is not compared.
        for run in &runs {
            run.exp.check(&run.result, dir)?;
        }
        println!("{dir}: {} experiment files match", runs.len());
        return Ok(ExitCode::SUCCESS);
    }

    let mut failed = false;
    for run in &runs {
        match &run.result {
            Ok(output) => print!("{output}"),
            Err(e) => {
                failed = true;
                eprintln!("error: {} failed: {e}", run.exp.name);
            }
        }
    }
    // Per-experiment wall times live in run-summary.json's `timings`
    // object; stderr keeps only the one-line total.
    eprintln!(
        "[timing] total    {total_ms:>10.1} ms ({} experiments, {jobs} job{})",
        runs.len(),
        if jobs == 1 { "" } else { "s" }
    );

    let timings = bench::spans::drain_json();
    if let Err(e) = write_result_files(&runs, jobs, total_ms, timings, out_dir) {
        eprintln!("warning: could not write {out_dir}/*.json: {e}");
    }

    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Writes one `<out_dir>/<name>.json` per successful experiment and a
/// `<out_dir>/run-summary.json` roll-up with wall times and the drained
/// self-profiling spans.
fn write_result_files(
    runs: &[ExperimentRun],
    jobs: usize,
    total_ms: f64,
    timings: Json,
    out_dir: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    for run in runs {
        if let Ok(output) = &run.result {
            std::fs::write(
                format!("{out_dir}/{}.json", run.exp.name),
                run.exp.result_json(output),
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
                            .set("name", run.exp.name)
                            .set("wall_ms", run.wall_ms)
                            .set("ok", run.result.is_ok())
                    })
                    .collect(),
            ),
        )
        .set("timings", timings);
    std::fs::write(format!("{out_dir}/run-summary.json"), summary.pretty())
}

/// `limit-repro stat <workload>`: a perf-stat-like summary for one of the
/// synthetic applications, measured with LiMiT counters.
fn stat_workload(which: &str) -> Result<(), CliError> {
    use analysis::metrics::{per_kilo_instruction, ratio};
    use sim_cpu::EventKind;
    use sim_os::ThreadStats;

    const EVENTS: [EventKind; 4] = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::LlcMisses,
        EventKind::BranchMisses,
    ];
    let mut session = trace::stock_session(which, &EVENTS)?;
    let report = session.run()?;

    let total = |i: usize| session.counter_grand_total(i);
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
/// directly (the CI smoke entry point; an experiment in `bench` wraps the
/// same harness into a table).
///
/// Exit status encodes the harness contract: the fixup-on arm must be
/// divergence-free, and the fixup-off arm must rediscover the read race
/// (zero findings there means the harness itself lost its teeth).
fn torture_cmd(args: &[String]) -> Result<ExitCode, CliError> {
    use torture::{render_repro, run_arm, shrink, TortureConfig};

    let mut cfg = TortureConfig::default();
    let mut fixup = "both";
    let mut replay: Option<(u64, u64)> = None;
    let mut out_dir = OUT_DIR;
    for (key, value) in parse_flags(
        args,
        &["schedules", "seed", "fixup", "spill", "replay", "out-dir"],
    )? {
        match key {
            "schedules" => cfg.schedules = parse_num(key, value)?,
            "seed" => cfg.seed = parse_num(key, value)?,
            "fixup" => match value {
                "on" | "off" | "both" => fixup = value,
                other => {
                    let e = format!("invalid --fixup value {other:?} (on|off|both)");
                    return Err(CliError::Failed(e));
                }
            },
            "spill" => cfg.spill = parse_num(key, value)?,
            "replay" => replay = Some(trace::parse_replay_spec(value)?),
            "out-dir" => out_dir = value,
            _ => unreachable!(),
        }
    }
    if cfg.schedules == 0 {
        return Err(CliError::Failed("--schedules must be non-zero".into()));
    }

    if let Some((seed, index)) = replay {
        return torture_replay(cfg, fixup, seed, index, out_dir);
    }
    let arms: &[bool] = match fixup {
        "on" => &[true],
        "off" => &[false],
        _ => &[true, false],
    };
    let mut ok = true;
    for &arm_fixup in arms {
        let label = if arm_fixup { "fixup-on" } else { "fixup-off" };
        let span = bench::spans::start(format!("torture/{label}"));
        let report = run_arm(&cfg, arm_fixup)?;
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
                    let minimal = shrink(&cfg, arm_fixup, failing)?;
                    println!("{}", render_repro(&cfg, arm_fixup, failing, &minimal)?);
                }
            }
        } else if report.divergences == 0 {
            ok = false;
            eprintln!("error: fixup-off arm found no divergence — harness has lost its teeth");
        } else if let Some(failing) = &report.first_failure {
            let minimal = shrink(&cfg, arm_fixup, failing)?;
            println!(
                "shrunk repro of the first fixup-off failure:\n{}",
                render_repro(&cfg, arm_fixup, failing, &minimal)?
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
) -> Result<ExitCode, CliError> {
    cfg.seed = seed;
    // Replays chase failures, which live in the fixup-off arm unless the
    // caller explicitly pins --fixup on.
    let arm_fixup = fixup == "on";
    let span = bench::spans::start(format!("torture/replay-{seed},{index}"));
    let r = torture::replay(&cfg, arm_fixup, index, flight::FlightConfig::default())?;
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
  check-trace <file>                                    validate an NDJSON flight trace
--out-dir defaults to out/ (run: results/)"
    );
}

/// Parses `--key value` / `--key=value` pairs from an argument tail,
/// rejecting keys outside `allowed`.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, CliError> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(rest) = arg.strip_prefix("--") else {
            return Err(CliError::Syntax(format!("unknown argument {arg:?}")));
        };
        let (key, value) = match rest.split_once('=') {
            Some((k, v)) => (k, v),
            None => (
                rest,
                it.next()
                    .ok_or_else(|| CliError::Syntax(format!("--{rest} needs a value")))?
                    .as_str(),
            ),
        };
        if !allowed.contains(&key) {
            return Err(CliError::Syntax(format!("unknown flag --{key}")));
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

/// The operand after the command name: a workload, an experiment or a
/// file.
fn operand(args: &[String]) -> Result<&str, CliError> {
    args.get(1).map(String::as_str).ok_or(CliError::Usage)
}

/// Parses a comma-separated list, naming the first unknown item.
fn parse_list<T>(
    value: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|s| parse(s.trim()).ok_or_else(|| format!("unknown {what} {s:?}")))
        .collect()
}

/// Runs one command line: the operand, then the flags, then the command.
fn dispatch(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage);
    };
    match command.as_str() {
        "list" => {
            parse_flags(&args[1..], &[])?;
            println!("available experiments:");
            for exp in &experiments::ALL {
                println!("  {:<8} {}", exp.name, exp.title);
            }
            println!("workloads: {}", workloads::Workload::ALL.join(" "));
        }
        "stat" => {
            let which = operand(args)?;
            parse_flags(&args[2..], &[])?;
            stat_workload(which)?;
        }
        "run" => {
            let which = operand(args)?;
            let (mut jobs, mut out_dir, mut check) = (1, "results", None);
            for (key, value) in parse_flags(&args[2..], &["jobs", "out-dir", "check"])? {
                match key {
                    "jobs" => jobs = parse_jobs(key, value)?,
                    "out-dir" => out_dir = value,
                    "check" => check = Some(value),
                    _ => unreachable!(),
                }
            }
            let chosen = if which == "all" {
                experiments::ALL.iter().collect()
            } else {
                let exp = experiments::ALL
                    .iter()
                    .find(|e| e.name == which)
                    .ok_or_else(|| format!("unknown experiment {which:?}; try `list`"))?;
                vec![exp]
            };
            return run_experiments(chosen, jobs, out_dir, check);
        }
        "monitor" => {
            let which = operand(args)?;
            let mut opts = monitor::MonitorOptions::default();
            for (key, value) in parse_flags(
                &args[2..],
                &["threads", "queries", "interval", "capacity", "out-dir"],
            )? {
                match key {
                    "threads" => opts.threads = parse_num(key, value)?,
                    "queries" => opts.queries = parse_num(key, value)?,
                    "interval" => opts.interval = parse_num(key, value)?,
                    "capacity" => opts.capacity = parse_num(key, value)?,
                    "out-dir" => opts.out_dir = value.to_string(),
                    _ => unreachable!(),
                }
            }
            monitor::run(which, &opts)?;
        }
        "fleet" => {
            let which = operand(args)?;
            let mut opts = fleet_cmd::FleetOptions::default();
            for (key, value) in parse_flags(
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
            )? {
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
            }
            fleet_cmd::run(which, &opts)?;
        }
        "whatif" => {
            let which = operand(args)?;
            let mut opts = whatif_cmd::WhatifOptions::default();
            for (key, value) in parse_flags(
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
            )? {
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
            }
            whatif_cmd::run(which, &opts)?;
        }
        "trust" => {
            use torture::matrix::{event_by_mnemonic, AccessMethod, Disturb};
            let mut opts = trust_cmd::TrustOptions::default();
            for (key, value) in parse_flags(
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
            )? {
                match key {
                    "schedules" => opts.cfg.schedules = parse_num(key, value)?,
                    "seed" => opts.cfg.seed = parse_num(key, value)?,
                    "jobs" => opts.jobs = parse_jobs(key, value)?,
                    "events" => opts.events = parse_list(value, "event", event_by_mnemonic)?,
                    "methods" => opts.methods = parse_list(value, "method", AccessMethod::parse)?,
                    "disturbs" => opts.disturbs = parse_list(value, "disturbance", Disturb::parse)?,
                    "out-dir" => opts.out_dir = value.to_string(),
                    _ => unreachable!(),
                }
            }
            if !trust_cmd::run(&opts)? {
                return Ok(ExitCode::FAILURE);
            }
        }
        "torture" => return torture_cmd(&args[1..]),
        "trace" => {
            let which = operand(args)?;
            let mut opts = trace::TraceOptions::default();
            for (key, value) in parse_flags(&args[2..], &["out-dir", "buf-slots", "categories"])? {
                match key {
                    "out-dir" => opts.out_dir = value.to_string(),
                    "buf-slots" => opts.buf_slots = parse_num(key, value)?,
                    "categories" => opts.categories = flight::Categories::parse(value)?,
                    _ => unreachable!(),
                }
            }
            trace::run(which, &opts)?;
        }
        "check-trace" => {
            let path = operand(args)?;
            parse_flags(&args[2..], &[])?;
            trace::check(path)?;
        }
        "check-telemetry" => {
            let path = operand(args)?;
            parse_flags(&args[2..], &[])?;
            monitor::check(path)?;
        }
        _ => return Err(CliError::Usage),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        match e {
            CliError::Usage => usage(),
            CliError::Syntax(e) => {
                eprintln!("error: {e}");
                usage();
            }
            CliError::Failed(e) => eprintln!("error: {e}"),
        }
        ExitCode::FAILURE
    })
}
