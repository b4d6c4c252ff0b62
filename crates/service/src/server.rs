//! The multi-connection front-end: an accept loop over any
//! [`Listener`] with admission control, shared warm caches, and
//! graceful drain.
//!
//! Every admitted connection runs an ordinary
//! [`ServeOptions::serve`](crate::ServeOptions::serve) session on its
//! own thread, over a clone of one shared
//! [`CacheSet`](expose_dse::CacheSet) — so tenants
//! warm each other's regex models, solver verdicts, and DFA tables
//! while each connection keeps its own deterministic result stream.
//!
//! Admission control happens at accept time: the loop refuses
//! connections beyond `max_connections` with a structured `overloaded`
//! error line (and refuses everything with `draining` once a drain
//! began); within a connection, the scheduler's in-flight bound applies
//! backpressure instead of refusing work. A drain ([`ServerState::begin_drain`], wired to
//! SIGTERM by `expose-serve`) stops accepting, lets every in-flight
//! session flush and close with its versioned `done` line, then
//! returns.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::{self, AdmissionCounters, ErrorCode, ProtoVersion, RequestError};
use crate::session::ServeOptions;
use crate::transport::{Accepted, Connection, Listener};

/// How often the accept loop wakes to re-check the drain flag when no
/// connection arrives.
const ACCEPT_POLL: Duration = Duration::from_millis(100);

/// Shared front-end state: the drain flag plus admission counters.
/// One instance is shared by the accept loop, every connection's
/// session (which polls [`ServerState::draining`] between reads), and
/// the signal watcher of the binary.
#[derive(Debug, Default)]
pub struct ServerState {
    draining: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_draining: AtomicU64,
}

impl ServerState {
    /// Fresh state behind an [`Arc`], ready to share.
    pub fn new() -> Arc<ServerState> {
        Arc::new(ServerState::default())
    }

    /// Starts a graceful drain: stop admitting connections, finish
    /// in-flight work, exit the accept loop once idle. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Connections currently being served.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// A snapshot of the admission counters for `metrics` lines.
    pub fn admission_counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            active: self.active() as u64,
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            draining: self.draining(),
        }
    }
}

/// What one [`serve_listener`] run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSummary {
    /// Connections admitted and served to completion.
    pub connections: u64,
    /// Connections refused by admission control (`overloaded` or
    /// `draining`).
    pub rejected: u64,
}

/// Writes a one-line structured refusal to a just-accepted connection
/// and closes it. Best-effort: the peer may already be gone.
fn refuse(conn: Box<dyn Connection>, code: ErrorCode, message: &str) {
    if let Ok((_input, mut output)) = conn.open() {
        let line = proto::error_line(&RequestError::new(code, message, ProtoVersion::V1));
        let _ = writeln!(output, "{line}");
        let _ = output.flush();
    }
}

/// Whether a session error only says the peer has gone: writing to a
/// socket the peer closed fails with `BrokenPipe` or `ConnectionReset`.
fn peer_gone(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
    )
}

/// Serves connections from `listener` until the listener is exhausted
/// (stdio) or `state` drains. Each admitted connection runs
/// [`ServeOptions::serve`] on its own thread over a clone of one
/// shared warm cache set.
pub fn serve_listener(
    listener: &mut (dyn Listener + Send),
    options: &ServeOptions,
    state: &Arc<ServerState>,
) -> io::Result<ServerSummary> {
    let config = options.config_ref().clone();
    // One warm cache set shared across every connection (unless the
    // caller already provided one).
    let caches = options
        .caches_ref()
        .cloned()
        .unwrap_or_else(|| config.cache_set());
    let mut summary = ServerSummary::default();
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if state.draining() && state.active() == 0 {
                return Ok(());
            }
            match listener.poll_accept(ACCEPT_POLL)? {
                Accepted::Idle => continue,
                // No further connections possible; the scope joins the
                // in-flight sessions.
                Accepted::Exhausted => return Ok(()),
                Accepted::Connection(conn) => {
                    if state.draining() {
                        state.rejected_draining.fetch_add(1, Ordering::Relaxed);
                        summary.rejected += 1;
                        refuse(
                            conn,
                            ErrorCode::Draining,
                            "server is draining; connection refused",
                        );
                        continue;
                    }
                    if config.max_connections > 0 && state.active() >= config.max_connections {
                        state.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                        summary.rejected += 1;
                        refuse(
                            conn,
                            ErrorCode::Overloaded,
                            &format!(
                                "{} connections active (the limit); retry later",
                                config.max_connections
                            ),
                        );
                        continue;
                    }
                    state.accepted.fetch_add(1, Ordering::Relaxed);
                    state.active.fetch_add(1, Ordering::SeqCst);
                    summary.connections += 1;
                    let serve = options
                        .clone()
                        .caches(caches.clone())
                        .server(Arc::clone(state));
                    let state = Arc::clone(state);
                    scope.spawn(move || {
                        let peer = conn.peer();
                        let result = match conn.open() {
                            Ok((input, output)) => serve.serve(input, output),
                            Err(e) => Err(e),
                        };
                        // A peer that hung up (a readiness probe that
                        // never sent a line, a client killed mid-stream)
                        // is a quiet close. Any other failure is logged,
                        // but must never take the server down.
                        if let Err(e) = result {
                            if !peer_gone(&e) {
                                eprintln!("expose-serve: session on {peer} ended with error: {e}");
                            }
                        }
                        state.active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            }
        }
    })?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_gone_peer_is_a_quiet_close() {
        for kind in [io::ErrorKind::BrokenPipe, io::ErrorKind::ConnectionReset] {
            assert!(peer_gone(&io::Error::from(kind)), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::InvalidData,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::Other,
        ] {
            assert!(!peer_gone(&io::Error::from(kind)), "{kind:?}");
        }
    }
}
