//! `expose-serve` — the NDJSON DSE job service.
//!
//! ```text
//! # Stream jobs through the work-stealing scheduler (stdin/stdout):
//! expose-serve [--workers N] [--max-inflight N]
//!
//! # Same protocol over a Unix socket or TCP (connections share warm
//! # caches; admission control via --max-connections; SIGTERM drains
//! # gracefully — stop accepting, flush in-flight, close each stream
//! # with its done line):
//! expose-serve --listen unix:/tmp/expose.sock [--workers N]
//! expose-serve --listen tcp:127.0.0.1:7077 [--max-connections N]
//!
//! # The harness modes (serial --batch reference, corpus emitters,
//! # TCP soak client) live in the bench crate's `serve-harness`.
//! ```

use expose_service::session::{ServeOptions, ServiceConfig};
use expose_service::{serve_listener, Listen, ServerState};

const USAGE: &str = "usage: expose-serve [--workers N] [--flip-workers N] [--max-inflight N] \
     [--listen stdio|unix:PATH|tcp:ADDR] [--max-connections N] [--metrics-text] \
     [--cache-bytes N]";

/// Prints the usage line and exits: 0 for `--help` (no `problem`), 64
/// (`EX_USAGE`) for an unknown or malformed argument.
fn usage(problem: Option<&str>) -> ! {
    match problem {
        None => {
            println!("{USAGE}");
            std::process::exit(0)
        }
        Some(problem) => {
            eprintln!("expose-serve: {problem}");
            eprintln!("{USAGE}");
            std::process::exit(64)
        }
    }
}

/// Parses a numeric argument value, or exits with the usage line.
fn number<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(Some(&format!("{name} needs a number, got {value:?}"))))
}

struct Options {
    workers: usize,
    flip_workers: Option<usize>,
    max_inflight: usize,
    listen: Option<String>,
    max_connections: Option<usize>,
    metrics_text: bool,
    cache_bytes: Option<usize>,
}

fn parse_args() -> Options {
    let mut options = Options {
        workers: 0,
        flip_workers: None,
        max_inflight: 256,
        listen: None,
        max_connections: None,
        metrics_text: false,
        cache_bytes: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(Some(&format!("{arg} needs a value"))))
        };
        match arg.as_str() {
            "--workers" => options.workers = number(&arg, &value()),
            "--flip-workers" => options.flip_workers = Some(number(&arg, &value())),
            "--max-inflight" => options.max_inflight = number(&arg, &value()),
            "--listen" => options.listen = Some(value()),
            "--max-connections" => options.max_connections = Some(number(&arg, &value())),
            "--metrics-text" => options.metrics_text = true,
            "--cache-bytes" => options.cache_bytes = Some(number(&arg, &value())),
            "--help" | "-h" => usage(None),
            other => usage(Some(&format!("unknown argument {other:?}"))),
        }
    }
    options
}

fn service_config(options: &Options) -> ServiceConfig {
    let mut config = ServiceConfig::default()
        .workers(options.workers)
        .max_inflight(options.max_inflight);
    if let Some(cap) = options.max_connections {
        config = config.max_connections(cap);
    }
    // `--cache-bytes N` caps each session cache at ~N resident bytes
    // (0 = unlimited); the default ceiling lives in ServiceConfig.
    if let Some(bytes) = options.cache_bytes {
        config = config.cache_bytes(bytes);
    }
    // `--flip-workers N` sets the default per-trace flip-solving worker
    // count (requests may still override per line). Exploration output
    // must be byte-identical for any value — explore-smoke diffs it.
    if let Some(n) = options.flip_workers {
        config = config.flip_workers(n);
    }
    config
}

/// SIGTERM/SIGINT → graceful drain: the async-signal handler only
/// flips a static flag; a watcher thread turns the flag into
/// [`ServerState::begin_drain`] from safe code.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use expose_service::ServerState;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn drain_on_signals(state: &Arc<ServerState>) {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
        let state = Arc::clone(state);
        std::thread::spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("expose-serve: signal received; draining");
                state.begin_drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
}

#[cfg(not(unix))]
mod sig {
    use expose_service::ServerState;
    use std::sync::Arc;

    pub fn drain_on_signals(_state: &Arc<ServerState>) {}
}

/// Serves `--listen stdio|unix:PATH|tcp:ADDR` through the admission
/// front-end: one shared warm cache set, `--max-connections` cap,
/// graceful drain on SIGTERM/SIGINT.
fn run_listener(spec: &str, options: &Options) -> std::io::Result<()> {
    let listen = Listen::parse(spec).map_err(std::io::Error::other)?;
    let mut listener = listen.bind()?;
    eprintln!("expose-serve: listening on {}", listener.local_addr());
    let state = ServerState::new();
    sig::drain_on_signals(&state);
    let serve = ServeOptions::new()
        .config(service_config(options))
        .metrics_text(options.metrics_text);
    let summary = serve_listener(listener.as_mut(), &serve, &state)?;
    eprintln!(
        "expose-serve: drained, {} connection(s) served, {} refused",
        summary.connections, summary.rejected
    );
    Ok(())
}

fn main() -> std::io::Result<()> {
    let options = parse_args();
    if let Some(spec) = &options.listen {
        return run_listener(spec, &options);
    }

    let stdin = std::io::stdin();
    let summary = ServeOptions::new()
        .config(service_config(&options))
        .metrics_text(options.metrics_text)
        .serve(stdin.lock(), std::io::stdout())?;
    eprintln!(
        "expose-serve: session done, {} job(s), {} request error(s)",
        summary.jobs, summary.request_errors
    );
    Ok(())
}
