//! Flag handling of the `limit-repro` binary: a flag a command does not
//! take is an error that names it, never silently ignored.

use std::process::Command;

#[test]
fn stat_rejects_every_flag_by_name() {
    for args in [
        ["stat", "mysqld", "--threads", "0"],
        ["stat", "mysqld", "--bogus", "3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_limit-repro"))
            .args(args)
            .output()
            .expect("spawn limit-repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains(&format!("error: unknown flag {}", args[2])),
            "{args:?}: stderr does not name the flag:\n{stderr}"
        );
    }
}
