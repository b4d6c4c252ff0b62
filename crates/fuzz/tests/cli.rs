//! The `fuzz` binary answers `--help` and bad arguments with a usage
//! line and an exit code instead of a panic.

use std::process::Command;

#[test]
fn fuzz_cli_prints_usage_instead_of_panicking() {
    let bin = env!("CARGO_BIN_EXE_fuzz");
    let help = Command::new(bin).arg("--help").output().expect("run fuzz");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: fuzz"));

    for args in [
        &["--no-such-flag"][..],
        &["--seed-range", "5..2"],
        &["--budget"],
    ] {
        let out = Command::new(bin).args(args).output().expect("run fuzz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fuzz"), "{args:?}: {stderr}");
    }
}
