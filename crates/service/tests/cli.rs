//! The `expose-serve` binary answers `--help` and bad arguments with a
//! usage line and an exit code instead of a panic. It takes only
//! serving flags: the harness modes belong to `serve-harness`.

use std::process::Command;

#[test]
fn expose_serve_cli_prints_usage_instead_of_panicking() {
    let bin = env!("CARGO_BIN_EXE_expose-serve");
    let help = Command::new(bin)
        .arg("--help")
        .output()
        .expect("run expose-serve");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: expose-serve"));

    for args in [
        &["--no-such-flag"][..],
        &["--workers"],
        &["--workers", "many"],
        &["--batch"],
        &["--emit-corpus", "10"],
        &["--replay-stream", "10"],
        &["--soak", "127.0.0.1:1"],
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("run expose-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: expose-serve"), "{args:?}: {stderr}");
    }
}
