//! The `serve-tcp` workload: `serve_listener` on a loopback TCP port,
//! driven by closed-loop clients — each sends one `submit`, waits for
//! its `result` line, and sends the next.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use expose_dse::CacheSet;
use expose_service::json::{self, escaped, Value};
use expose_service::{serve_listener, Listen, ServeOptions, ServerState, ServiceConfig};

use crate::check::Digest;
use crate::gen::Program;
use crate::inproc::JobSample;
use crate::trace::Tracer;

/// The `submit` line of a pool program at the quick budget.
pub fn submit_line(p: &Program) -> String {
    format!(
        "{{\"type\":\"submit\",\"name\":{},\"entry\":{},\"arity\":{},\
         \"max_executions\":40,\"max_steps\":50000,\"program\":{}}}",
        escaped(&p.name),
        escaped(&p.entry),
        p.arity,
        escaped(&p.source)
    )
}

/// A running server on a loopback port.
pub struct Server {
    /// `host:port` to connect to.
    pub addr: String,
    /// The server's shared cache set.
    pub caches: CacheSet,
    state: Arc<ServerState>,
    thread: JoinHandle<io::Result<expose_service::ServerSummary>>,
}

impl Server {
    /// Binds `127.0.0.1:0` and serves every connection with its own
    /// one-shard scheduler over one shared cache set. With `nproc`
    /// clients that keeps the server at `nproc` workers in total.
    pub fn start() -> io::Result<Server> {
        let mut listener = Listen::parse("tcp:127.0.0.1:0")
            .map_err(io::Error::other)?
            .bind()?;
        let addr = listener.local_addr();
        let config = ServiceConfig::default().workers(1);
        let caches = config.cache_set();
        let options = ServeOptions::new().config(config).caches(caches.clone());
        let state = ServerState::new();
        let server_state = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || serve_listener(listener.as_mut(), &options, &server_state))?;
        Ok(Server {
            addr,
            caches,
            state,
            thread,
        })
    }

    /// Connections the server admitted so far.
    pub fn accepted(&self) -> u64 {
        self.state.admission_counters().accepted
    }

    /// Drains the server and waits for its thread.
    pub fn stop(self) -> io::Result<()> {
        self.state.begin_drain();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
            .map(|_| ())
    }
}

/// Server-side numbers of one connection, from its `metrics` line.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSide {
    /// Jobs in the connection's latency histogram.
    pub jobs: u64,
    /// Median job wall time, ms (histogram bucket upper bound).
    pub p50_ms: f64,
    /// 99th-percentile job wall time, ms (bucket upper bound).
    pub p99_ms: f64,
    /// Jobs stolen between the connection's scheduler shards.
    pub steals: u64,
}

/// One closed-loop client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes sent.
    pub sent: u64,
    /// Bytes received.
    pub received: u64,
    /// `error` lines answering a submit.
    pub errors: u64,
    /// Of those, refusals (`overloaded` or `draining`).
    pub refused: u64,
    line: String,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            sent: 0,
            received: 0,
            errors: 0,
            refused: 0,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.sent += line.len() as u64 + 1;
        Ok(())
    }

    /// Reads lines until one of type `kind` (or an `error`) arrives;
    /// `None` at end of stream.
    fn read_until(&mut self, kind: &str) -> io::Result<Option<Value>> {
        let wanted = format!("\"type\":\"{kind}\"");
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                return Ok(None);
            }
            self.received += n as u64;
            if self.line.contains(&wanted) || self.line.contains("\"type\":\"error\"") {
                return json::parse(self.line.trim())
                    .map(Some)
                    .map_err(|e| io::Error::other(format!("unparsable response: {e}")));
            }
        }
    }

    /// Submits one job and waits for its answer: the job's digest, or
    /// the failure (an `error` line, or no answer at all).
    pub fn run_job(&mut self, submit: &str) -> io::Result<Result<(Digest, u64, u64), String>> {
        self.send(submit)?;
        let Some(line) = self.read_until("result")? else {
            return Ok(Err("connection closed without a result".to_string()));
        };
        if line.get("type").and_then(Value::as_str) == Some("error") {
            self.errors += 1;
            let code = line.get("code").and_then(Value::as_str).unwrap_or("");
            if matches!(code, "overloaded" | "draining") {
                self.refused += 1;
            }
            return Ok(Err(format!("error line: {code}")));
        }
        let queries = line.get("queries").and_then(Value::as_u64).unwrap_or(0);
        let sat = line.get("sat_queries").and_then(Value::as_u64).unwrap_or(0);
        Ok(Digest::from_result_line(&line).map(|d| (d, queries, sat)))
    }

    /// Asks for the connection's `metrics` line.
    pub fn metrics(&mut self) -> io::Result<ServerSide> {
        self.send("{\"type\":\"metrics\"}")?;
        let line = self
            .read_until("metrics")?
            .ok_or_else(|| io::Error::other("no metrics line"))?;
        let latency = line.get("job_latency");
        let field = |key: &str| {
            latency
                .and_then(|l| l.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let steals = match line.get("shards") {
            Some(Value::Arr(shards)) => shards
                .iter()
                .filter_map(|s| s.get("steals").and_then(Value::as_u64))
                .sum(),
            _ => 0,
        };
        Ok(ServerSide {
            jobs: field("count") as u64,
            p50_ms: field("p50_ms"),
            p99_ms: field("p99_ms"),
            steals,
        })
    }

    /// Ends the session and reads the stream to its end.
    pub fn close(mut self) -> io::Result<()> {
        self.send("{\"type\":\"shutdown\"}")?;
        while self.read_until("done")?.is_some() {}
        Ok(())
    }
}

/// One client's share of a soak.
#[derive(Debug, Default)]
pub struct Soak {
    /// Finished jobs (failures included).
    pub samples: Vec<JobSample>,
    /// Jobs sent that never got an answer.
    pub unanswered: Vec<usize>,
}

/// Runs `client` closed-loop over `order` until `deadline` (or until
/// `order` ends). With a tracer, each job gets a `service.job` span.
pub fn soak(
    client: &mut Client,
    submits: &[String],
    order: &mut dyn Iterator<Item = usize>,
    deadline: Option<Instant>,
    start: Instant,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Soak> {
    let mut out = Soak::default();
    while deadline.is_none_or(|d| Instant::now() < d) {
        let Some(index) = order.next() else { break };
        let sent = Instant::now();
        let answer = client.run_job(&submits[index])?;
        let done = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.span("service.job", None, index as u64, sent, done);
            tracer.finish_job();
        }
        let unanswered = matches!(&answer, Err(e) if e.starts_with("connection closed"));
        if unanswered {
            out.unanswered.push(index);
            break;
        }
        let (outcome, flips, sat) = match answer {
            Ok((digest, flips, sat)) => (Ok(digest), flips, sat),
            Err(error) => (Err(error), 0, 0),
        };
        let coverage = outcome.as_ref().map_or(0.0, |d| {
            crate::stats::ratio(d.covered as f64, d.stmts as f64)
        });
        out.samples.push(JobSample {
            index,
            done_s: (done - start).as_secs_f64(),
            latency_s: (done - sent).as_secs_f64(),
            outcome,
            coverage,
            flips,
            sat,
        });
    }
    Ok(out)
}
