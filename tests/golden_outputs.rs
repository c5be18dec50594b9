//! Golden fingerprints of the CLI's deterministic outputs.
//!
//! Each case runs the `limit-repro` binary at small fixed flags in a
//! fresh directory (`--out-dir out`, so the trailing "wrote <path>" lines
//! are the same everywhere) and compares an FNV-1a-64 digest of each
//! output against a constant. The simulator is deterministic, so a
//! refactor that keeps behaviour keeps every digest; a deliberate
//! behaviour change re-records them (the failure message prints the new
//! values). Host-timed outputs are left out: the Chrome `trace-*.json`
//! export carries host spans, so only the `.ndjson` timeline is pinned;
//! `trust-summary.json` carries wall times, so only the matrix is; and
//! `torture` reports its rates on stderr, so only its stdout is.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `args` in a fresh directory and checks each `(output, digest)`
/// pair, where `output` is `"stdout"` or a path relative to that
/// directory. `out_dir` appends `--out-dir out`.
fn check(name: &str, args: &[&str], out_dir: bool, expected: &[(&str, u64)]) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("limit-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_limit-repro"));
    cmd.args(args).current_dir(&dir);
    if out_dir {
        cmd.args(["--out-dir", "out"]);
    }
    let out = cmd.output().expect("spawn limit-repro");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut mismatches = Vec::new();
    for &(what, want) in expected {
        let bytes = if what == "stdout" {
            out.stdout.clone()
        } else {
            std::fs::read(dir.join(what)).unwrap_or_else(|e| panic!("{what}: {e}"))
        };
        let got = fnv1a64(&bytes);
        if got != want {
            mismatches.push(format!("{what}: got {got:#018x}, want {want:#018x}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "{args:?} output changed:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn monitor_mysqld() {
    check(
        "monitor-mysqld",
        &["monitor", "mysqld", "--threads", "2", "--queries", "20"],
        true,
        &[
            ("stdout", 0xa0d8_a701_1ca6_f13d),
            ("out/telemetry-mysqld.json", 0xc28a_517f_0562_80e6),
        ],
    );
}

#[test]
fn monitor_logstore() {
    check(
        "monitor-logstore",
        &["monitor", "logstore", "--threads", "2", "--queries", "6"],
        true,
        &[
            ("stdout", 0xd753_9385_f783_ac88),
            ("out/telemetry-logstore.json", 0x795d_be26_7f6d_dbd7),
        ],
    );
}

/// Hundreds of drain ticks, each with I/O rows: pins the incremental
/// collector view across many publishes, not just a handful.
#[test]
fn monitor_logstore_many_ticks() {
    check(
        "monitor-logstore-many-ticks",
        &["monitor", "logstore", "--threads", "4", "--queries", "200"],
        true,
        &[
            ("stdout", 0x68d7_3046_56fd_148a),
            ("out/telemetry-logstore.json", 0xcd3a_56aa_599e_3d35),
        ],
    );
}

#[test]
fn fleet_mysqld() {
    check(
        "fleet-mysqld",
        &["fleet", "mysqld", "--instances", "8", "--jobs", "2"],
        true,
        &[
            ("stdout", 0xce79_22e1_fe85_27c2),
            ("out/fleet-mysqld.json", 0xf355_8f99_4f0a_0feb),
        ],
    );
}

#[test]
fn whatif_memcached() {
    check(
        "whatif-memcached",
        &["whatif", "memcached", "--queries", "20", "--jobs", "2"],
        true,
        &[
            ("stdout", 0xa61d_2809_3925_5caf),
            ("out/whatif-memcached.json", 0x5a89_027d_74ed_14d7),
        ],
    );
}

#[test]
fn trace_mysqld() {
    check(
        "trace-mysqld",
        &["trace", "mysqld"],
        true,
        &[("out/trace-mysqld.ndjson", 0x160b_60c1_4bf0_0833)],
    );
}

#[test]
fn trace_firefox() {
    check(
        "trace-firefox",
        &["trace", "firefox"],
        true,
        &[("out/trace-firefox.ndjson", 0xa967_d547_12d1_1c7b)],
    );
}

#[test]
fn trace_apache() {
    check(
        "trace-apache",
        &["trace", "apache"],
        true,
        &[("out/trace-apache.ndjson", 0x2b51_fb73_5219_d142)],
    );
}

#[test]
fn trace_proxy() {
    check(
        "trace-proxy",
        &["trace", "proxy"],
        true,
        &[("out/trace-proxy.ndjson", 0xcc72_b0cc_7883_4f36)],
    );
}

#[test]
fn stat_mysqld() {
    check(
        "stat-mysqld",
        &["stat", "mysqld"],
        false,
        &[("stdout", 0x8074_308e_3365_fca5)],
    );
}

#[test]
fn stat_firefox() {
    check(
        "stat-firefox",
        &["stat", "firefox"],
        false,
        &[("stdout", 0x951a_3926_535b_e020)],
    );
}

#[test]
fn stat_apache() {
    check(
        "stat-apache",
        &["stat", "apache"],
        false,
        &[("stdout", 0xb76b_8ab5_2395_0028)],
    );
}

#[test]
fn stat_memcached() {
    check(
        "stat-memcached",
        &["stat", "memcached"],
        false,
        &[("stdout", 0x4b86_2f11_ef91_950b)],
    );
}

#[test]
fn trust_slice() {
    check(
        "trust-slice",
        &[
            "trust",
            "--schedules",
            "4",
            "--events",
            "instructions,llc-misses",
            "--jobs",
            "2",
        ],
        true,
        &[
            ("stdout", 0x61de_d1c4_7b27_7ddb),
            ("out/trust-matrix.json", 0x97d3_9f88_2f97_2e68),
        ],
    );
}

#[test]
fn torture_seed1() {
    check(
        "torture-seed1",
        &["torture", "--schedules", "40", "--seed", "1"],
        false,
        &[("stdout", 0x738b_c754_c46c_707b)],
    );
}
