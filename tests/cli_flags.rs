//! Flag handling of the `limit-repro` binary: a flag a command does not
//! take is an error that names it, never silently ignored.

use std::process::Command;

/// Every command that takes no flags (`stat`, `list`, `check-telemetry`,
/// `check-trace`) rejects any argument after its operand, naming it: a
/// stray flag as `unknown flag`, a second path as `unknown argument`, so a
/// file given to a checker is never silently left unchecked.
#[test]
fn stat_rejects_every_flag_by_name() {
    let cases: [(&[&str], &str); 8] = [
        (
            &["stat", "mysqld", "--threads", "0"],
            "unknown flag --threads",
        ),
        (&["stat", "mysqld", "--bogus", "3"], "unknown flag --bogus"),
        (&["list", "--jobs", "2"], "unknown flag --jobs"),
        (&["list", "e1"], "unknown argument \"e1\""),
        (
            &["check-telemetry", "good.json", "/nonexistent/file.json"],
            "unknown argument \"/nonexistent/file.json\"",
        ),
        (
            &["check-telemetry", "good.json", "--strict", "1"],
            "unknown flag --strict",
        ),
        (
            &["check-trace", "trace.ndjson", "trace.json"],
            "unknown argument \"trace.json\"",
        ),
        (
            &["check-trace", "trace.ndjson", "--buf-slots", "8"],
            "unknown flag --buf-slots",
        ),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
            .args(args)
            .output()
            .expect("spawn limit-repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains(&format!("error: {expected}")),
            "{args:?}: stderr does not say `{expected}`:\n{stderr}"
        );
    }
}

/// Without `--out-dir`, the ad-hoc surfaces write under `out/` of the
/// working directory and never create `results/`, which holds only the
/// gated `run` tables (`tests/results_files.rs`).
#[test]
fn surfaces_default_to_out_dir() {
    let cwd = std::env::temp_dir().join(format!("limit-repro-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create temp cwd");
    let cases: [(&[&str], &str); 2] = [
        (
            &["monitor", "mysqld", "--threads", "2", "--queries", "20"],
            "telemetry-mysqld.json",
        ),
        (
            &["fleet", "mysqld", "--instances", "2", "--threads", "2"],
            "fleet-mysqld.json",
        ),
    ];
    for (args, file) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn limit-repro");
        assert!(
            out.status.success(),
            "{args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            cwd.join("out").join(file).is_file(),
            "{args:?}: no out/{file}"
        );
    }
    assert!(!cwd.join("results").exists(), "a surface created results/");
    std::fs::remove_dir_all(&cwd).expect("remove temp cwd");
}

/// One error path for every command: a missing operand or an unknown
/// command prints usage alone, bad flag syntax prints the error and then
/// usage, and a bad value or a failed run prints the error alone. Each
/// exits 1.
#[test]
fn errors_keep_their_exit_code_first_line_and_usage() {
    let usage = "usage: limit-repro <command>";
    let cases: [(&[&str], &str, bool); 7] = [
        (&["monitor"], usage, true),
        (
            &["monitor", "postgres"],
            "error: unknown workload \"postgres\" (mysqld|memcached|logstore|proxy|firefox|apache)",
            false,
        ),
        (
            &["monitor", "mysqld", "--threads", "x"],
            "error: invalid --threads value \"x\"",
            false,
        ),
        (
            &["monitor", "mysqld", "--threads"],
            "error: --threads needs a value",
            true,
        ),
        (
            &["run", "e99"],
            "error: unknown experiment \"e99\"; try `list`",
            false,
        ),
        (
            &["trust", "--events", "bogus"],
            "error: unknown event \"bogus\"",
            false,
        ),
        (&["bogus"], usage, true),
    ];
    for (args, first_line, with_usage) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
            .args(args)
            .output()
            .expect("spawn limit-repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert_eq!(stderr.lines().next(), Some(first_line), "{args:?}");
        assert_eq!(
            stderr.contains(usage),
            with_usage,
            "{args:?}: usage printed is not {with_usage}:\n{stderr}"
        );
    }
}

/// A numeric flag outside its range fails up front with an error naming
/// the flag, instead of running with a silently substituted value.
#[test]
fn out_of_range_numbers_are_rejected_by_name() {
    let fleet = ["fleet", "mysqld", "--instances", "2"];
    let cases: [(Vec<&str>, &str); 7] = [
        (
            [&fleet[..], &["--arrival-rate", "nan"]].concat(),
            "--arrival-rate must be finite and positive, got NaN",
        ),
        (
            [&fleet[..], &["--arrival-rate", "inf"]].concat(),
            "--arrival-rate must be finite and positive, got inf",
        ),
        (
            [&fleet[..], &["--burst", "nan"]].concat(),
            "--burst must be finite and at least 1, got NaN",
        ),
        (
            [&fleet[..], &["--burst", "0.5"]].concat(),
            "--burst must be finite and at least 1, got 0.5",
        ),
        (
            [&fleet[..], &["--burst", "inf"]].concat(),
            "--burst must be finite and at least 1, got inf",
        ),
        (
            vec!["trust", "--schedules", "0"],
            "--schedules must be non-zero",
        ),
        (
            vec!["torture", "--schedules", "0"],
            "--schedules must be non-zero",
        ),
    ];
    let cwd = std::env::temp_dir().join(format!("limit-repro-range-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create temp cwd");
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
            .args(&args)
            .current_dir(&cwd)
            .output()
            .expect("spawn limit-repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains(&format!("error: {expected}\n")),
            "{args:?}: stderr does not say `{expected}`:\n{stderr}"
        );
        assert!(!stderr.contains("usage:"), "{args:?} printed usage");
    }
    std::fs::remove_dir_all(&cwd).expect("remove temp cwd");
}
