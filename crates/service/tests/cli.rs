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

/// A client that connects and hangs up without sending a line (a TCP
/// readiness probe) is a quiet close: the server logs no session
/// error, serves the next client, and drains cleanly on SIGTERM.
#[cfg(unix)]
#[test]
fn a_silent_client_hanging_up_is_not_a_server_error() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::Stdio;

    let mut server = Command::new(env!("CARGO_BIN_EXE_expose-serve"))
        .args(["--listen", "tcp:127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start expose-serve");
    let mut stderr = BufReader::new(server.stderr.take().expect("stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("expose-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    for _ in 0..3 {
        drop(TcpStream::connect(&addr).expect("connect the silent client"));
    }

    let mut client = TcpStream::connect(&addr).expect("connect");
    client
        .write_all(
            concat!(
                r#"{"type":"submit","name":"a","program":"function f(x) { return 0; }"}"#,
                "\n",
                r#"{"type":"shutdown"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("write");
    let mut stream = String::new();
    client.read_to_string(&mut stream).expect("read");
    assert!(
        stream.starts_with(r#"{"v":1,"type":"result","job":0,"name":"a""#),
        "{stream}"
    );
    assert!(
        stream.ends_with("{\"v\":1,\"type\":\"done\",\"jobs\":1}\n"),
        "{stream}"
    );

    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let mut log = String::new();
    stderr
        .read_to_string(&mut log)
        .expect("read the server log");
    assert!(server.wait().expect("wait").success(), "{log}");
    assert!(!log.contains("error"), "{log}");
    assert!(log.contains("drained, 4 connection(s) served"), "{log}");
}
