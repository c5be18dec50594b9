//! The `run` subcommand: untraced and traced passes over each workload.
//!
//! A pass repeats *calibrate, set-up, round* until it has run for
//! `--seconds`. Rounds repeat identical work, so a pass reports the
//! *fastest* round for its timings: the one least slowed by the other
//! tenants of a shared host. Slow phases of such a host can also outlast
//! a whole pass, so end-to-end timings are scaled to the reference host's
//! speed by a fixed calibration loop timed before every round (README.md
//! shows the host's noise). Set-up time is the median over the rounds of
//! each set-up scaled by the calibration timed just before it; peak
//! memory is the process's peak over the first set-up and round.
//!
//! The untraced pass yields the end-to-end metrics. The traced pass
//! alternates untraced and traced rounds (so the tracing overhead compares
//! like with like) and yields the per-layer metrics, with the floor
//! probes' values, which the caller measures once for all workloads.
//! Every round is checked: seed-independent invariants always, and the
//! exact fingerprint against the pass's reference — `expected.json` at
//! the default seed and full scale, else the pass's first round.

use crate::spec::Spec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Params, Round, Values, Workload};
use sim_core::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Where traced passes write `trace-<workload>.json`.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Which passes a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    Untraced,
    Traced,
    Both,
}

/// One pass's outcome, in the shape of the result line.
#[derive(Debug, Default)]
pub struct PassResult {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub rounds: usize,
    /// Latency samples behind `op_ms_*`, over all rounds.
    pub op_samples: usize,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its declared unit. Panics on an undeclared metric name (a bug
    /// in this benchmark, not in the measured program).
    pub fn to_json(&self, spec: &Spec) -> Json {
        let metrics = self.metrics.iter().map(|(name, v)| {
            let unit = match spec.metric(name) {
                Some(m) => m.unit.as_str(),
                None => panic!("metric {name:?} is not declared in BENCHMARK.json"),
            };
            (
                name.to_string(),
                Json::object().set("value", *v).set("unit", unit),
            )
        });
        Json::object()
            .set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", Json::Object(metrics.collect()))
    }
}

/// Ops one calibration runs.
const CALIBRATION_STEPS: usize = 200_000;

/// Words of the calibration's table: 8 MiB, more than a core's caches
/// hold, as the simulator's working set is.
const CALIBRATION_WORDS: usize = 1 << 20;

/// Seconds one calibration takes on the undisturbed reference host
/// (2-vCPU VM, 2.0 GHz): end-to-end timings are reported at this speed.
const CALIBRATION_REF_S: f64 = 1.55e-3;

/// The calibration: a fixed toy interpreter, independent of the
/// simulator, that slows down when the host does in the ways the
/// simulator does. It dispatches byte ops through a jump table, as the
/// simulator's interpreter does, and loads and stores at scattered places
/// in an 8 MiB table, as its cache and memory models do. (A loop over an
/// L1-resident table misses the phases in which other tenants contend for
/// caches and memory, and those are the ones that slow the simulator
/// most.)
struct Calibration {
    ops: Vec<u8>,
    table: Vec<u64>,
}

impl Calibration {
    fn new() -> Calibration {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let ops = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 8) as u8
            })
            .collect();
        // Every word written, so the whole table is resident from here on.
        let table = vec![1; CALIBRATION_WORDS];
        Calibration { ops, table }
    }

    /// Seconds to run [`CALIBRATION_STEPS`] ops.
    fn run(&mut self) -> f64 {
        let (ops, mem) = (&self.ops, &mut self.table);
        let mask = mem.len() - 1;
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut pc = 0;
        let t = Instant::now();
        for i in 0..CALIBRATION_STEPS {
            let a = i & 7;
            let b = (a + 3) & 7;
            match ops[pc] {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b] << 3,
                2 => r[a] = mem[(r[b] as usize).wrapping_mul(0x9E37) & mask],
                3 => mem[(r[a] as usize).wrapping_mul(0x85EB) & mask] = r[b],
                4 => {
                    if r[a] & 1 == 1 {
                        pc = (pc + 17) & 4095;
                    }
                }
                5 => r[a] = r[a].rotate_left(7) ^ r[b],
                6 => r[a] = r[a].wrapping_mul(r[b] | 1),
                _ => r[a] = r[a].wrapping_sub(r[b] >> 2),
            }
            pc = (pc + 1) & 4095;
        }
        std::hint::black_box(r);
        t.elapsed().as_secs_f64()
    }
}

thread_local! {
    static CALIBRATION: std::cell::RefCell<Calibration> =
        std::cell::RefCell::new(Calibration::new());
}

/// Runs the calibration: its time says how fast the host runs right now.
fn calibrate() -> f64 {
    CALIBRATION.with(|c| c.borrow_mut().run())
}

/// MiB the calibration's table keeps resident in this thread.
fn calibration_mib() -> f64 {
    (CALIBRATION_WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
}

/// What a pass's loop collected.
#[derive(Default)]
struct Timed {
    rounds: Vec<Round>,
    /// Seconds of the calibration loop before each round.
    calibration: Vec<f64>,
    /// Seconds of the set-up before each round.
    setups: Vec<f64>,
    /// Peak resident set over the first set-up and round, MiB.
    first_rss_mib: f64,
    /// A set-up or round returned an error, which ends the pass (the
    /// simulation is deterministic, so it would error again).
    errored: bool,
}

/// Runs set-up then `round(i)` until `seconds` have passed and at least
/// `min` rounds have run.
fn timed<F>(w: Workload, p: &Params, seconds: f64, min: usize, mut round: F) -> (Timed, Vec<String>)
where
    F: FnMut(usize) -> Result<Round, String>,
{
    let t0 = Instant::now();
    let mut t = Timed::default();
    let mut errors = Vec::new();
    // Later rounds also carry what the allocator kept from earlier ones
    // (per-thread arenas make that differ from run to run), so memory is
    // read once, after the first round. The calibration's table is made
    // resident before the mark is reset and left out of the reading.
    calibrate();
    reset_peak_rss();
    while t.rounds.len() < min || t0.elapsed() < Duration::from_secs_f64(seconds) {
        let calibration = calibrate();
        let step = w
            .setup(p)
            .and_then(|setup| Ok((setup, round(t.rounds.len())?)));
        match step {
            Ok((setup, r)) => {
                if t.rounds.is_empty() {
                    t.first_rss_mib = peak_rss_mib() - calibration_mib();
                }
                t.calibration.push(calibration);
                t.setups.push(setup);
                t.rounds.push(r);
            }
            Err(e) => {
                errors.push(e);
                t.errored = true;
                break;
            }
        }
    }
    (t, errors)
}

impl Timed {
    /// How much slower than the reference host the host ran just before
    /// round `i`: the calibration loop's time over its reference time.
    fn slowdown(&self, i: usize) -> f64 {
        self.calibration[i] / CALIBRATION_REF_S
    }

    /// How much slower than the reference host this pass ran: the 10th
    /// percentile of the rounds' slowdowns.
    fn pass_slowdown(&self) -> f64 {
        let mut s: Vec<f64> = (0..self.rounds.len()).map(|i| self.slowdown(i)).collect();
        s.sort_by(f64::total_cmp);
        stats::percentile(&s, 10.0).unwrap_or(1.0)
    }
}

/// The best per-round rate of `work` per host second.
fn peak_rate<'a>(rounds: impl IntoIterator<Item = &'a Round>, work: fn(&Round) -> f64) -> f64 {
    rounds
        .into_iter()
        .map(|r| work(r) / r.secs)
        .fold(0.0, f64::max)
}

/// The smallest per-round value of `f`.
fn fastest(rounds: &[Round], f: fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Checks rounds against `reference`; returns the ops of failed rounds.
fn check(w: Workload, rounds: &[Round], reference: &Json, errors: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, r) in rounds.iter().enumerate() {
        let mut bad = r.violations.clone();
        if r.fingerprint != *reference {
            bad.push(format!(
                "fingerprint mismatch\n  expected {}\n  actual   {}",
                reference.compact(),
                r.fingerprint.compact()
            ));
        }
        if !bad.is_empty() {
            failed += r.ops;
            errors.extend(
                bad.into_iter()
                    .map(|b| format!("{} round {i}: {b}", w.name())),
            );
        }
    }
    failed
}

/// Runs a pass's loop and its bookkeeping: attempts, failures and the
/// fingerprint check.
fn pass<F>(
    w: Workload,
    p: &Params,
    seconds: f64,
    min: usize,
    expected: Option<&Json>,
    round: F,
) -> (Timed, PassResult)
where
    F: FnMut(usize) -> Result<Round, String>,
{
    let (t, errors) = timed(w, p, seconds, min, round);
    let lost = if t.errored { w.planned_ops(p) } else { 0 };
    let mut res = PassResult {
        attempted: t.rounds.iter().map(|r| r.ops).sum::<u64>() + lost,
        failed: lost,
        errors,
        rounds: t.rounds.len(),
        op_samples: t.rounds.iter().map(|r| r.latency.samples).sum(),
        ..Default::default()
    };
    if let Some(first) = t.rounds.first() {
        let reference = expected.unwrap_or(&first.fingerprint);
        res.failed += check(w, &t.rounds, reference, &mut res.errors);
    }
    (t, res)
}

fn named(values: Values) -> BTreeMap<String, f64> {
    values
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// The untraced pass: the end-to-end metrics.
pub fn untraced(w: Workload, p: &Params, seconds: f64, expected: Option<&Json>) -> PassResult {
    let (t, mut res) = pass(w, p, seconds, 1, expected, |_| w.round(p, None));
    if t.rounds.is_empty() {
        return res;
    }
    if let Some(r) = t
        .rounds
        .iter()
        .find(|r| stats::samples_beyond(r.latency.samples, 90.0) < 10)
    {
        eprintln!(
            "warning: {}: a round's {} latency samples leave fewer than ten beyond p90",
            w.name(),
            r.latency.samples
        );
    }
    let slow = t.pass_slowdown();
    println!(
        "{}: host ran {slow:.3}x slower than the reference host; timings below are rescaled",
        w.name()
    );
    // Each set-up is rescaled by the calibration timed just before it.
    let setups: Vec<f64> = (0..t.rounds.len())
        .map(|i| t.setups[i] / t.slowdown(i))
        .collect();
    res.metrics = named(Values::from([
        ("ops_per_s", peak_rate(&t.rounds, |r| r.ops as f64) * slow),
        (
            "guest_minstr_per_s",
            peak_rate(&t.rounds, |r| r.guest_instrs as f64) / 1e6 * slow,
        ),
        ("op_ms_p50", fastest(&t.rounds, |r| r.latency.p50) / slow),
        ("op_ms_p90", fastest(&t.rounds, |r| r.latency.p90) / slow),
        ("setup_s", stats::median(&setups).unwrap_or(0.0)),
        ("peak_rss_mb", t.first_rss_mib),
    ]));
    res
}

/// The traced pass: the per-layer metrics, with the floor probes' values
/// added, and `out/trace-<workload>.json`.
pub fn traced(
    w: Workload,
    p: &Params,
    seconds: f64,
    expected: Option<&Json>,
    probes: &Result<Values, String>,
) -> PassResult {
    let tracer = Tracer::new();
    // Even rounds untraced, odd rounds traced.
    let (t, mut res) = pass(w, p, seconds, 2, expected, |i| {
        if i % 2 == 0 {
            return w.round(p, None);
        }
        let r = w.round(p, Some(&tracer));
        tracer.end_round();
        r
    });
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, r) in t.rounds.iter().enumerate() {
        if i % 2 == 0 {
            plain.push(r);
        } else {
            traced.push(r);
        }
    }
    let Some(exact) = traced.first() else {
        return res;
    };

    let mut m = exact.counts.clone();
    m.extend(w.layer_times(&tracer, &traced, p.workers));
    if w.builds_sessions() {
        m.insert(
            "workloads.build_ms_p50",
            stats::median(&t.setups).unwrap_or(0.0) * 1e3,
        );
    }
    let ops = |r: &Round| r.ops as f64;
    m.insert(
        "bench.trace_overhead_frac",
        1.0 - peak_rate(traced.iter().copied(), ops) / peak_rate(plain.iter().copied(), ops),
    );
    match probes {
        Ok(probes) => m.extend(probes),
        Err(e) => res.errors.push(e.clone()),
    }
    res.metrics = named(m);

    if matches!(w, Workload::MysqldStream | Workload::LogstoreFsync) {
        // Closure check for the single-threaded workloads: the traced
        // layers' self time against an untraced round's wall time.
        let self_ns: u64 = tracer.aggregates().values().map(|a| a.self_ns).sum();
        let per_round = self_ns as f64 / 1e9 / traced.len() as f64;
        let plain_secs: Vec<f64> = plain.iter().map(|r| r.secs).collect();
        let plain_median = stats::median(&plain_secs).unwrap_or(0.0);
        println!(
            "{}: layers' self time {per_round:.4} s per traced round, \
             untraced round {plain_median:.4} s ({:+.1}%)",
            w.name(),
            (per_round / plain_median - 1.0) * 100.0
        );
    }
    let path = format!("{OUT_DIR}/trace-{}.json", w.name());
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace(w.name()).compact()));
    match written {
        Ok(()) => println!("wrote {path}"),
        Err(e) => res.errors.push(format!("cannot write {path}: {e}")),
    }
    res
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets this process's peak-RSS mark to its current RSS, so the next
/// VmHWM reading is the peak of what runs in between (an earlier
/// workload's, when one process runs several).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
