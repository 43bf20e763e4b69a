//! The fixd serving loop: a threaded front end over a sharded database.
//!
//! One blocking accept loop hands each connection to its own thread.
//! Connection threads read the first four bytes — the `FIXB` magic selects
//! the binary frame protocol, an HTTP method selects the HTTP/JSON surface
//! — then block in `read` between requests until the peer hangs up or the
//! server drains. Nothing polls: shutdown wakes every blocked thread
//! instead (see [`ServerHandle::shutdown`]).
//!
//! Admission control is two-layer and sheds load with a *structured
//! error*, never a hang: a global in-flight cap
//! ([`ServerConfig::max_inflight`]) and an optional per-tenant concurrent
//! quota ([`ServerConfig::tenant_quota`]). Shutdown is graceful: accepting
//! stops immediately, in-flight queries run to completion and their
//! responses are written, then connections close and
//! [`ServerHandle::shutdown`] joins every thread.
//!
//! [`run_daemon`] is the command-line front door `fixd` and `fixdb serve`
//! share: flags, open, serve, banner, drain on SIGTERM/SIGINT.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fix_core::{FixError, ShardRouter, ShardedDatabase, ShardedSession};
use fix_obs::json::JsonWriter;
use fix_obs::{names, Category, EventRecorder, FieldValue, MetricsRegistry, Severity};

use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ErrorCode, ProtoError, Request,
    Response, WireMetrics, MAGIC,
};

/// Upper bound on an HTTP request head (request line + headers).
const MAX_HTTP_HEAD: usize = 16 * 1024;
/// Upper bound on an HTTP request body.
const MAX_HTTP_BODY: usize = 1 << 20;

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Global cap on concurrently executing queries; excess is shed with
    /// [`ErrorCode::Admission`].
    pub max_inflight: usize,
    /// Per-tenant cap on concurrently executing queries (0 = unlimited);
    /// excess is shed with [`ErrorCode::Quota`].
    pub tenant_quota: usize,
    /// Socket write timeout: a peer that stops reading for this long is
    /// disconnected instead of blocking its thread in `write` forever —
    /// without it, one stuck peer would make graceful shutdown (which
    /// joins every connection thread) hang indefinitely.
    pub write_timeout: Duration,
    /// Ring capacity of the server's flight recorder.
    pub event_capacity: usize,
    #[doc(hidden)]
    /// Test hook: artificial delay inside each query's in-flight window,
    /// so tests can saturate admission control deterministically.
    pub debug_query_delay: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 64,
            tenant_quota: 0,
            write_timeout: Duration::from_secs(5),
            event_capacity: 1024,
            debug_query_delay: Duration::ZERO,
        }
    }
}

struct Shared {
    session: ShardedSession,
    registry: Arc<MetricsRegistry>,
    events: Arc<EventRecorder>,
    cfg: ServerConfig,
    /// The drain flag. It is only ever set while `conns` is held.
    shutdown: AtomicBool,
    /// A read-side handle of every open connection, by connection id.
    /// Registration checks `shutdown` under this lock, so every
    /// connection is either swept by [`ServerHandle::shutdown`] or refused.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled whenever a connection closes or the drain begins.
    conn_closed: Condvar,
    inflight: AtomicUsize,
    tenants: Mutex<HashMap<String, usize>>,
}

impl Shared {
    /// Locks the tenant map, recovering from poisoning: a panic in one
    /// query thread must not brick admission control for every later
    /// request (the map's invariants are simple counters, safe to reuse).
    fn lock_tenants(&self) -> MutexGuard<'_, HashMap<String, usize>> {
        self.tenants.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Locks the connection registry, recovering from poisoning like
    /// [`Shared::lock_tenants`].
    fn lock_conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Records a read-side handle of `stream` so a drain can wake its
    /// thread. False — refuse the connection — once the drain has begun
    /// or if the handle cannot be cloned.
    fn register(&self, id: u64, stream: &TcpStream) -> bool {
        let mut conns = self.lock_conns();
        if self.draining() {
            return false;
        }
        let Ok(handle) = stream.try_clone() else {
            return false;
        };
        conns.insert(id, handle);
        self.registry
            .gauge(names::SERVER_CONNECTIONS_OPEN)
            .set(conns.len() as i64);
        true
    }

    fn unregister(&self, id: u64) {
        let mut conns = self.lock_conns();
        conns.remove(&id);
        self.registry
            .gauge(names::SERVER_CONNECTIONS_OPEN)
            .set(conns.len() as i64);
        self.conn_closed.notify_all();
    }

    /// Runs one query under admission control. Every failure mode maps to
    /// a structured response; this function cannot hang, and even a panic
    /// unwinding out of the engine releases its admission slots (the
    /// [`AdmissionGuard`] drops during unwind).
    fn run_query(&self, tenant: &str, query: &str) -> Response {
        if self.draining() {
            return Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
            };
        }
        // Global admission: optimistic increment, shed on overflow.
        let cur = self.inflight.fetch_add(1, Ordering::SeqCst);
        if cur >= self.cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.registry.counter(names::SERVER_ADMISSION_REJECTS).inc();
            self.events.record(
                Category::Server,
                Severity::Warn,
                "admission_shed",
                vec![("inflight", FieldValue::U64(cur as u64))],
            );
            return Response::Error {
                code: ErrorCode::Admission,
                message: format!("server at capacity ({} queries in flight)", cur),
            };
        }
        // From here the in-flight slot is owned by the guard: every exit
        // path — early return, normal completion, panic — releases it.
        let mut guard = AdmissionGuard {
            shared: self,
            tenant: None,
        };
        self.registry
            .gauge(names::SERVER_INFLIGHT)
            .set(self.inflight.load(Ordering::SeqCst) as i64);

        // Per-tenant quota.
        if self.cfg.tenant_quota > 0 {
            let mut tenants = self.lock_tenants();
            let slot = tenants.entry(tenant.to_string()).or_insert(0);
            if *slot >= self.cfg.tenant_quota {
                drop(tenants);
                self.registry.counter(names::SERVER_QUOTA_REJECTS).inc();
                return Response::Error {
                    code: ErrorCode::Quota,
                    message: format!(
                        "tenant `{tenant}` at quota ({} concurrent queries)",
                        self.cfg.tenant_quota
                    ),
                };
            }
            *slot += 1;
            guard.tenant = Some(tenant.to_string());
        }

        let start = Instant::now();
        if !self.cfg.debug_query_delay.is_zero() {
            std::thread::sleep(self.cfg.debug_query_delay);
        }
        let outcome = self.session.query(query);
        let elapsed = start.elapsed();

        // Release quota + admission slots before building the response.
        drop(guard);
        self.registry.counter(names::SERVER_QUERIES).inc();
        self.registry
            .histogram(names::SERVER_QUERY_NS)
            .record_duration(elapsed);

        match outcome {
            Ok(out) => Response::Hits {
                results: out.results.iter().map(|&(d, n)| (d.0, n.0)).collect(),
                metrics: WireMetrics {
                    entries: out.metrics.entries,
                    candidates: out.metrics.candidates,
                    delta_candidates: out.metrics.delta_candidates,
                    producing: out.metrics.producing,
                },
                elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            },
            Err(e) => {
                self.registry.counter(names::SERVER_QUERY_ERRORS).inc();
                let code = match &e {
                    FixError::BadQuery(_) | FixError::Parse(_) => ErrorCode::BadQuery,
                    FixError::NotCovered { .. } => ErrorCode::NotCovered,
                    FixError::DeadlineExceeded { .. } => ErrorCode::Deadline,
                    _ => ErrorCode::Internal,
                };
                Response::Error {
                    code,
                    message: e.to_string(),
                }
            }
        }
    }
}

/// Owns one admitted query's accounting: the global in-flight slot and,
/// once armed with a tenant name, that tenant's quota slot. Releasing in
/// `Drop` makes the accounting leak-proof — a panic unwinding out of the
/// engine returns the slots just like a normal exit, so capacity can
/// never ratchet down toward all-`Admission` rejects.
struct AdmissionGuard<'a> {
    shared: &'a Shared,
    tenant: Option<String>,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        if let Some(tenant) = self.tenant.take() {
            let mut tenants = self.shared.lock_tenants();
            if let Some(slot) = tenants.get_mut(&tenant) {
                *slot = slot.saturating_sub(1);
                if *slot == 0 {
                    tenants.remove(&tenant);
                }
            }
        }
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        self.shared
            .registry
            .gauge(names::SERVER_INFLIGHT)
            .set(self.shared.inflight.load(Ordering::SeqCst) as i64);
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts rather than drains (threads are
/// detached); call `shutdown` for the graceful path.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry behind `/metrics`.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// The flight recorder behind `/events`.
    pub fn events(&self) -> &Arc<EventRecorder> {
        &self.shared.events
    }

    /// Queries currently executing.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Stops accepting, lets in-flight queries finish and their responses
    /// flush, closes every connection, and joins all server threads.
    ///
    /// Every open connection is shut down for reading: a thread blocked
    /// in `read` sees EOF at once, while one running a query still writes
    /// its answer and exits at its next read. One loopback connect wakes
    /// the accept loop out of `accept`.
    pub fn shutdown(mut self) {
        {
            let conns = self.shared.lock_conns();
            self.shared.shutdown.store(true, Ordering::SeqCst);
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        self.shared.conn_closed.notify_all();
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared
            .events
            .record(Category::Server, Severity::Info, "server_stopped", vec![]);
    }
}

/// Where a connect reaches a listener bound to `addr`: the loopback
/// address of the same family when bound to the unspecified one.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Binds and serves `db` until [`ServerHandle::shutdown`]. The handle's
/// registry is the database's own, so `/metrics` exposes engine and
/// server families side by side.
pub fn serve(db: &ShardedDatabase, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let registry = db.metrics().clone();
    let events = EventRecorder::shared(cfg.event_capacity);
    let session = db.session().with_registry(registry.clone());
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // Pre-register the whole server family so /metrics exports every
    // counter from the first scrape — "0" and "absent" mean different
    // things to an alerting rule.
    for name in [
        names::SERVER_CONNECTIONS,
        names::SERVER_QUERIES,
        names::SERVER_QUERY_ERRORS,
        names::SERVER_ADMISSION_REJECTS,
        names::SERVER_QUOTA_REJECTS,
        names::SERVER_MALFORMED,
        names::SERVER_HTTP_REQUESTS,
    ] {
        registry.counter(name);
    }
    registry.gauge(names::SERVER_CONNECTIONS_OPEN);
    registry.gauge(names::SERVER_INFLIGHT);
    registry.histogram(names::SERVER_QUERY_NS);
    for shard in 0..session.shard_count() {
        registry.histogram(&format!("fix_server_shard_query_ns_shard{shard}"));
    }
    let shared = Arc::new(Shared {
        session,
        registry,
        events,
        cfg,
        shutdown: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        conn_closed: Condvar::new(),
        inflight: AtomicUsize::new(0),
        tenants: Mutex::new(HashMap::new()),
    });
    shared.events.record(
        Category::Server,
        Severity::Info,
        "server_started",
        vec![("addr", FieldValue::Str(addr.to_string()))],
    );
    let accept_shared = shared.clone();
    let accept = std::thread::Builder::new()
        .name("fixd-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    while !shared.draining() {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(_) => {
                // Most likely out of descriptors: retrying at once would
                // spin. Wait until a connection closes and frees one (or
                // the drain begins), bounded in case none ever does.
                let conns = shared.lock_conns();
                if !shared.draining() {
                    let _ = shared
                        .conn_closed
                        .wait_timeout(conns, Duration::from_millis(100));
                }
                continue;
            }
        };
        next_id += 1;
        let id = next_id;
        // Refused (the drain's wake-up connect among them): drop it.
        if !shared.register(id, &stream) {
            continue;
        }
        shared.registry.counter(names::SERVER_CONNECTIONS).inc();
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("fixd-conn".into())
            .spawn(move || {
                // catch_unwind keeps the registry (and the open-connections
                // gauge it drives) honest even if a connection thread panics.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = handle_connection(stream, &conn_shared);
                }));
                conn_shared.unregister(id);
            });
        match spawned {
            Ok(h) => threads.push(h),
            Err(_) => shared.unregister(id),
        }
        // Reap finished connection threads so the vec stays bounded.
        threads.retain(|h| !h.is_finished());
    }
    // Close the port, then wait for the connections the drain woke.
    drop(listener);
    for h in threads {
        let _ = h.join();
    }
}

/// Serves one connection end to end. Any I/O error just drops the
/// connection; protocol errors get a structured response first.
fn handle_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    stream.set_nodelay(true).ok();
    // `FIXB` → binary; anything else is the start of an HTTP request.
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    if head == MAGIC {
        serve_binary(stream, shared)
    } else {
        serve_http(stream, head, shared)
    }
}

// ---------------------------------------------------------------- binary

fn serve_binary(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(None) => return Ok(()), // clean EOF
            Ok(Some(Ok(p))) => p,
            Ok(Some(Err(e))) => {
                // Structured protocol failure: answer, then hang up (the
                // stream position is no longer trustworthy).
                shared.registry.counter(names::SERVER_MALFORMED).inc();
                let code = match e {
                    ProtoError::Oversize { .. } => ErrorCode::Oversize,
                    _ => ErrorCode::Malformed,
                };
                let resp = Response::Error {
                    code,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &encode_response(&resp));
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // Torn frame: nothing to answer. Malformed unless the
                // drain cut a stalled request short (only admitted
                // queries are drained).
                if !shared.draining() {
                    shared.registry.counter(names::SERVER_MALFORMED).inc();
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let resp = match decode_request(&payload) {
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Query { tenant, query }) => shared.run_query(&tenant, &query),
            Err(e) => {
                shared.registry.counter(names::SERVER_MALFORMED).inc();
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }
            }
        };
        write_frame(&mut stream, &encode_response(&resp))?;
    }
}

// ------------------------------------------------------------------ http

fn serve_http(mut stream: TcpStream, head: [u8; 4], shared: &Shared) -> io::Result<()> {
    shared.registry.counter(names::SERVER_HTTP_REQUESTS).inc();
    let req = match read_http_request(&mut stream, head.to_vec()) {
        Ok(Some(r)) => r,
        Ok(None) => return Ok(()),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            shared.registry.counter(names::SERVER_MALFORMED).inc();
            return write_http(&mut stream, 400, "text/plain", "bad request\n");
        }
        Err(e) => return Err(e),
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => write_http(&mut stream, 200, "text/plain", "ok\n"),
        ("GET", "/metrics") => {
            let body = shared.registry.render_prometheus();
            write_http(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        ("GET", "/events") => {
            let mut w = JsonWriter::new();
            w.begin_array();
            for e in shared.events.events() {
                e.write_json(&mut w);
            }
            w.end_array();
            write_http(&mut stream, 200, "application/json", &w.finish())
        }
        ("POST", "/query") => {
            let tenant = req.header("x-fix-tenant").unwrap_or_default();
            let resp = shared.run_query(&tenant, req.body.trim());
            let (status, body) = http_query_response(&resp);
            write_http(&mut stream, status, "application/json", &body)
        }
        ("GET", path) if path.starts_with("/query?") => match query_param(&req.path, "q") {
            Some(q) => {
                let tenant = req.header("x-fix-tenant").unwrap_or_default();
                let resp = shared.run_query(&tenant, &q);
                let (status, body) = http_query_response(&resp);
                write_http(&mut stream, status, "application/json", &body)
            }
            None => write_http(&mut stream, 400, "text/plain", "missing q parameter\n"),
        },
        _ => write_http(&mut stream, 404, "text/plain", "not found\n"),
    }
}

struct HttpRequest {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpRequest {
    fn header(&self, name: &str) -> Option<String> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    }
}

/// Reads one HTTP request whose first bytes are already in `buf`.
/// `Ok(None)` = the head never completed (peer hung up, or the drain shut
/// the connection); an `InvalidData` error = malformed request (answer
/// 400); a body cut short drops the connection.
fn read_http_request(stream: &mut TcpStream, mut buf: Vec<u8>) -> io::Result<Option<HttpRequest>> {
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HTTP_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad request line",
        ));
    }
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if content_length > MAX_HTTP_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body_bytes = buf.split_off(head_end + 4);
    let have = body_bytes.len();
    if have < content_length {
        body_bytes.resize(content_length, 0);
        stream.read_exact(&mut body_bytes[have..])?;
    }
    body_bytes.truncate(content_length);
    let body = String::from_utf8(body_bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not UTF-8"))?;
    Ok(Some(HttpRequest {
        method,
        path,
        headers,
        body,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Extracts and percent-decodes one query-string parameter.
fn query_param(path: &str, name: &str) -> Option<String> {
    let qs = path.split_once('?')?.1;
    for pair in qs.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == name {
            return Some(percent_decode(v));
        }
    }
    None
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Renders a query response as JSON plus its HTTP status.
fn http_query_response(resp: &Response) -> (u16, String) {
    let mut w = JsonWriter::new();
    match resp {
        Response::Hits {
            results,
            metrics,
            elapsed_ns,
        } => {
            w.begin_object();
            w.key("results").begin_array();
            for &(doc, node) in results {
                w.begin_array();
                w.u64(doc as u64);
                w.u64(node as u64);
                w.end_array();
            }
            w.end_array();
            w.key("metrics").begin_object();
            w.key("entries").u64(metrics.entries);
            w.key("candidates").u64(metrics.candidates);
            w.key("delta_candidates").u64(metrics.delta_candidates);
            w.key("producing").u64(metrics.producing);
            w.end_object();
            w.key("elapsed_ns").u64(*elapsed_ns);
            w.end_object();
            (200, w.finish())
        }
        Response::Error { code, message } => {
            w.begin_object();
            w.key("error").string(code.name());
            w.key("message").string(message);
            w.end_object();
            let status = match code {
                ErrorCode::BadQuery | ErrorCode::NotCovered | ErrorCode::Malformed => 400,
                ErrorCode::Oversize => 413,
                ErrorCode::Admission | ErrorCode::Quota => 429,
                ErrorCode::ShuttingDown => 503,
                ErrorCode::Deadline => 504,
                ErrorCode::Internal => 500,
            };
            (status, w.finish())
        }
        Response::Pong => (200, "{\"pong\":true}".to_string()),
    }
}

// ------------------------------------------------------------- daemonizing

/// Write end of the self-pipe the signal handler wakes the main thread
/// through; `-1` until [`install_signal_handlers`] creates it.
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one write(2) to the self-pipe.
    // The write end is nonblocking, so a full pipe drops the byte (one is
    // already waiting) instead of blocking the handler.
    let fd = SIGNAL_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: `fd` is the write end `install_signal_handlers` stored
        // and never closes, and the buffer is a live 1-byte array.
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Creates the self-pipe and installs SIGTERM/SIGINT handlers that write
/// one byte to it; returns the read end. Hand-rolled FFI because the
/// build environment carries no libc crate.
fn install_signal_handlers() -> io::Result<UnixStream> {
    let (wait, wake) = UnixStream::pair()?;
    wake.set_nonblocking(true)?;
    // The write end is never closed: a late second signal must not write
    // into whatever file a recycled descriptor number names.
    SIGNAL_WAKE_FD.store(wake.into_raw_fd(), Ordering::SeqCst);
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `on_signal` has the C handler signature and does only
    // async-signal-safe work (an atomic load and one write(2)).
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    Ok(wait)
}

/// Blocks in read(2) on the self-pipe until a signal arrives, then drains
/// `handle` gracefully. Returns when the server is fully stopped.
fn run_until_signal(mut wait: UnixStream, handle: ServerHandle) -> io::Result<()> {
    // `read_exact` retries the EINTR a handler run can cause.
    wait.read_exact(&mut [0u8; 1])?;
    eprintln!("draining ({} queries in flight)", handle.inflight());
    handle.shutdown();
    eprintln!("clean shutdown");
    Ok(())
}

/// The flags [`run_daemon`] accepts after `<db>`.
pub const DAEMON_USAGE: &str =
    "<db> [--addr HOST:PORT] [--shards N] [--max-inflight N] [--tenant-quota N]";

/// The serving front door shared by `fixd` and `fixdb serve`. Parses
/// [`DAEMON_USAGE`], opens `<db>` — a sharded manifest as-is, a single-file
/// database resharded in memory across `--shards` (default 1)
/// document-hash shards — serves it on `--addr` (default
/// `127.0.0.1:7878`), prints `<prog>: serving on ADDR (...)`, and blocks
/// until SIGTERM/SIGINT has drained it. A usage, open or bind failure is
/// returned as a message for the caller to print.
pub fn run_daemon(prog: &str, args: &[String]) -> Result<(), String> {
    fn count(flag: &str, value: Option<&String>) -> Result<usize, String> {
        value
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs an integer"))
    }
    let mut db_path: Option<&str> = None;
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut shards = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--shards" => shards = count(a, it.next())?,
            "--max-inflight" => cfg.max_inflight = count(a, it.next())?,
            "--tenant-quota" => cfg.tenant_quota = count(a, it.next())?,
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path.
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ if db_path.is_none() => db_path = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let db_path = db_path.ok_or("missing database path")?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let db = ShardedDatabase::open_any(Path::new(db_path), shards, ShardRouter::Hash)
        .map_err(|e| format!("cannot open {db_path}: {e}"))?;
    let addr = cfg.addr.clone();
    let handle = serve(&db, cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Handlers go in before the announcement, so a supervisor that signals
    // as soon as it reads "serving on" always gets a drain.
    let wait =
        install_signal_handlers().map_err(|e| format!("cannot install signal handlers: {e}"))?;
    println!(
        "{prog}: serving on {} ({} shards, {} docs)",
        handle.addr(),
        db.shard_count(),
        db.doc_count()
    );
    io::stdout().flush().ok();
    run_until_signal(wait, handle).map_err(|e| format!("cannot wait for a signal: {e}"))
}

fn write_http(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
