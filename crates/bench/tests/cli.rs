//! The `perf`, `redos` and `serve-harness` binaries answer `--help` and bad arguments
//! with a usage line and an exit code instead of a panic.

use std::process::Command;

fn assert_usage(bin: &str, name: &str, bad: &[&[&str]]) {
    let help = Command::new(bin)
        .arg("--help")
        .output()
        .expect("run binary");
    assert_eq!(help.status.code(), Some(0), "{name} --help");
    let usage = format!("usage: {name}");
    assert!(String::from_utf8_lossy(&help.stdout).starts_with(&usage));

    for args in bad {
        let out = Command::new(bin).args(*args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&usage), "{name} {args:?}: {stderr}");
    }
}

#[test]
fn perf_cli_prints_usage_instead_of_panicking() {
    assert_usage(
        env!("CARGO_BIN_EXE_perf"),
        "perf",
        &[
            &["--no-such-flag"],
            &["--flip-workers", "two"],
            &["--flip-workers", "2"],
            &["--check"],
        ],
    );
}

#[test]
fn redos_cli_prints_usage_instead_of_panicking() {
    assert_usage(
        env!("CARGO_BIN_EXE_redos"),
        "redos",
        &[&["--no-such-flag"], &["--bt-budget", "lots"]],
    );
}

#[test]
fn serve_harness_cli_prints_usage_instead_of_panicking() {
    assert_usage(
        env!("CARGO_BIN_EXE_serve-harness"),
        "serve-harness",
        &[
            &[],
            &["--no-such-flag"],
            &["--budget", "huge"],
            &["--emit-corpus", "-1"],
            &["--soak"],
            &["--workers", "2"],
        ],
    );
}
