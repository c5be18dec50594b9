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
