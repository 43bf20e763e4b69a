//! Loopback integration suite for `fixd`'s serving stack.
//!
//! Every test binds a real TCP listener on 127.0.0.1:0 and talks to it
//! over actual sockets — binary protocol via `fix_server::Client`, HTTP
//! via hand-written requests — so the framing, admission control, and
//! shutdown paths are exercised exactly as a remote peer would hit them.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use fix::{FixOptions, ShardRouter, ShardedDatabase};
use fix_server::proto::{encode_request, Request, MAGIC, OP_QUERY};
use fix_server::{serve, Client, ClientError, ErrorCode, ServerConfig, ServerHandle};

const DOCS: &[&str] = &[
    "<a><b><c/></b></a>",
    "<a><c/></a>",
    "<a><b><c/><c/></b></a>",
    "<d><b><c/></b></d>",
    "<a><b/></a>",
];

const QUERIES: &[&str] = &["//a/b", "//b/c", "//a", "//d//c", "//a//c"];

fn test_db(shards: usize) -> ShardedDatabase {
    ShardedDatabase::build(DOCS, shards, ShardRouter::Hash, FixOptions::collection()).unwrap()
}

/// Local ground truth for one query, in wire representation.
fn local_answer(db: &ShardedDatabase, q: &str) -> Vec<(u32, u32)> {
    db.query(q)
        .unwrap()
        .results
        .iter()
        .map(|&(d, n)| (d.0, n.0))
        .collect()
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

/// Shuts `handle` down and asserts the drain returned within a generous
/// bound: a blocked connection thread must be woken, never waited out.
fn shutdown_promptly(handle: ServerHandle, what: &str) {
    let start = Instant::now();
    handle.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "{what}: drain took {took:?}");
}

#[test]
fn concurrent_clients_get_correct_answers() {
    let db = test_db(3);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();

    let expected: Vec<(String, Vec<(u32, u32)>)> = QUERIES
        .iter()
        .map(|q| (q.to_string(), local_answer(&db, q)))
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                client.ping().unwrap();
                // Rotate the starting query so workers interleave
                // different plans on the shared server.
                for i in 0..expected.len() {
                    let (q, want) = &expected[(worker + i) % expected.len()];
                    let got = client.query(q).unwrap();
                    assert_eq!(&got.results, want, "worker {worker} query {q}");
                }
            });
        }
    });

    let snap = handle.registry().snapshot();
    let queries = snap.counter("fix_server_queries_total").unwrap_or(0);
    assert_eq!(queries, 8 * QUERIES.len() as u64);
    assert_eq!(
        snap.counter("fix_server_query_errors_total").unwrap_or(0),
        0
    );
    handle.shutdown();
}

#[test]
fn admission_control_sheds_with_structured_error() {
    let db = test_db(2);
    let cfg = ServerConfig {
        max_inflight: 1,
        debug_query_delay: Duration::from_millis(400),
        ..quiet_config()
    };
    let handle = serve(&db, cfg).unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let slow = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.query("//a/b").unwrap()
        });
        // Wait until the slow query occupies the single admission slot.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.inflight() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.inflight() > 0, "slow query never entered");

        let mut client = Client::connect(addr).unwrap();
        match client.query("//a/b") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Admission),
            other => panic!("expected admission shed, got {other:?}"),
        }
        // The shed is a response, not a hang-up: the same connection
        // works once the slot frees.
        let slow_result = slow.join().unwrap();
        let retried = client.query("//a/b").unwrap();
        assert_eq!(retried.results, slow_result.results);
    });

    let snap = handle.registry().snapshot();
    assert!(
        snap.counter("fix_server_admission_rejects_total")
            .unwrap_or(0)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn tenant_quota_sheds_only_the_greedy_tenant() {
    let db = test_db(2);
    let cfg = ServerConfig {
        max_inflight: 16,
        tenant_quota: 1,
        debug_query_delay: Duration::from_millis(400),
        ..quiet_config()
    };
    let handle = serve(&db, cfg).unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let slow = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap().with_tenant("alice");
            client.query("//a/b").unwrap()
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.inflight() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.inflight() > 0, "slow query never entered");

        // Same tenant: over quota.
        let mut alice = Client::connect(addr).unwrap().with_tenant("alice");
        match alice.query("//a/b") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Quota),
            other => panic!("expected quota shed, got {other:?}"),
        }
        // Different tenant: admitted (and slow, because of the debug
        // delay — so use a generous client timeout).
        let mut bob = Client::connect(addr).unwrap().with_tenant("bob");
        bob.set_timeout(Some(Duration::from_secs(30))).unwrap();
        let bob_result = bob.query("//a/b").unwrap();
        assert_eq!(bob_result.results, slow.join().unwrap().results);
    });

    let snap = handle.registry().snapshot();
    assert!(snap.counter("fix_server_quota_rejects_total").unwrap_or(0) >= 1);
    handle.shutdown();
}

#[test]
fn mid_frame_stall_does_not_desync_framing() {
    use fix_server::proto::{decode_response, read_frame, Response};

    let db = test_db(3);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();
    let want = local_answer(&db, "//a/b");

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&MAGIC).unwrap();

    let frame = encode_request(&Request::Query {
        tenant: String::new(),
        query: "//a/b".into(),
    });
    // Stall inside the length prefix and again inside the payload: the
    // server must wait for the rest of the frame, not restart parsing
    // mid-stream (which would misread the remaining bytes as a new frame
    // header).
    for part in [&frame[..2], &frame[2..6], &frame[6..]] {
        s.write_all(part).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(120));
    }

    let payload = read_frame(&mut s).unwrap().unwrap().unwrap();
    match decode_response(&payload).unwrap() {
        Response::Hits { results, .. } => assert_eq!(results, want),
        other => panic!("expected hits, got {other:?}"),
    }

    // The connection is still in sync: a second request round-trips.
    s.write_all(&encode_request(&Request::Ping)).unwrap();
    let p2 = read_frame(&mut s).unwrap().unwrap().unwrap();
    assert!(matches!(decode_response(&p2), Ok(Response::Pong)));

    handle.shutdown();
}

#[test]
fn malformed_frames_get_structured_errors_not_panics() {
    use fix_server::proto::{decode_response, read_frame, Response};

    let db = test_db(2);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();

    // Each abusive payload is written after the connection magic; the
    // server must answer with an error frame or hang up — never die. The
    // three whole frames that fail to decode must each get a `Malformed`
    // ERROR frame; the oversize claim may be cut short by the hang-up
    // (its unread bytes can reset the connection), and a torn frame has
    // nothing to answer.
    let abuses: Vec<(Vec<u8>, Option<ErrorCode>)> = vec![
        // Length claims 16 MiB: oversize, rejected before allocation.
        (
            {
                let mut v = Vec::new();
                v.extend_from_slice(&(16u32 << 20).to_le_bytes());
                v.extend_from_slice(&[0u8; 64]);
                v
            },
            None,
        ),
        // Valid length, unknown opcode.
        (
            {
                let mut v = Vec::new();
                v.extend_from_slice(&2u32.to_le_bytes());
                v.extend_from_slice(&[0x7f, 0x00]);
                v
            },
            Some(ErrorCode::Malformed),
        ),
        // Query frame whose tenant length lies past the payload end.
        (
            {
                let mut v = Vec::new();
                v.extend_from_slice(&3u32.to_le_bytes());
                v.push(OP_QUERY);
                v.extend_from_slice(&0xffffu16.to_le_bytes());
                v
            },
            Some(ErrorCode::Malformed),
        ),
        // Zero-length frame (no opcode at all).
        (0u32.to_le_bytes().to_vec(), Some(ErrorCode::Malformed)),
        // Truncated mid-frame: header promises 32 bytes, connection
        // closes after 4.
        (
            {
                let mut v = Vec::new();
                v.extend_from_slice(&32u32.to_le_bytes());
                v.extend_from_slice(&[OP_QUERY, 0, 0, 0]);
                v
            },
            None,
        ),
    ];

    for (i, (abuse, expect)) in abuses.iter().enumerate() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Connection preamble: the raw 4-byte magic, exactly as
        // `Client::connect` sends it (no length prefix).
        s.write_all(&MAGIC).unwrap();
        s.write_all(abuse).unwrap();
        // Half-close: the server reads EOF after the abuse instead of
        // waiting for a next frame that never comes. The result is
        // ignored: a server that already hung up on unread bytes (the
        // oversize header) resets the socket, and the half-close then
        // fails with ENOTCONN.
        let _ = s.shutdown(Shutdown::Write);
        if let Some(code) = expect {
            let payload = read_frame(&mut s)
                .unwrap_or_else(|e| panic!("abuse #{i}: {e}"))
                .unwrap_or_else(|| panic!("abuse #{i}: EOF before an ERROR frame"))
                .unwrap();
            match decode_response(&payload).unwrap() {
                Response::Error { code: got, .. } => assert_eq!(got, *code, "abuse #{i}"),
                other => panic!("abuse #{i}: expected an ERROR frame, got {other:?}"),
            }
        }
        // Drain whatever else comes back until EOF.
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
        drop(s);

        // Server must still answer a well-formed client afterwards.
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let got = client.query("//a/b").unwrap();
        assert_eq!(
            got.results,
            local_answer(&db, "//a/b"),
            "server wedged after abuse #{i}"
        );
    }

    let snap = handle.registry().snapshot();
    assert!(
        snap.counter("fix_server_malformed_total").unwrap_or(0) >= 3,
        "malformed traffic must be counted"
    );
    handle.shutdown();
}

#[test]
fn bad_queries_and_shutdown_state_are_structured() {
    let db = test_db(2);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    match client.query("]]]not a query[[[") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }
    // The connection survives a bad query.
    assert_eq!(
        client.query("//a/b").unwrap().results,
        local_answer(&db, "//a/b")
    );

    let snap = handle.registry().snapshot();
    assert!(snap.counter("fix_server_query_errors_total").unwrap_or(0) >= 1);
    handle.shutdown();
}

#[test]
fn over_deep_queries_are_bad_queries_not_stack_overflows() {
    let db = test_db(2);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();
    // 6 000 nested predicate levels: far past the parser's depth bound,
    // and deep enough that unbounded recursion overflows a connection
    // thread's stack and takes the whole process down.
    let deep = format!("//NP{}{}", "[NP".repeat(5_999), "]".repeat(5_999));

    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match client.query(&deep) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }

    let posted = http_post(addr, "/query", &deep);
    assert!(posted.starts_with("HTTP/1.1 400"), "POST /query: {posted}");
    assert!(posted.contains("\"bad_query\""), "{posted}");

    // The daemon survived both, and the binary connection is still live.
    assert_eq!(
        client.query("//a/b").unwrap().results,
        local_answer(&db, "//a/b")
    );
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(
        fresh.query("//b/c").unwrap().results,
        local_answer(&db, "//b/c")
    );
    handle.shutdown();
}

#[test]
fn http_endpoints_serve_health_metrics_events_and_queries() {
    let db = test_db(3);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();

    // Warm one binary query so /metrics and /events have content.
    let mut client = Client::connect(addr).unwrap();
    client.query("//a/b").unwrap();

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert!(health.ends_with("ok\n"));

    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"));
    for family in [
        "fix_server_connections_total",
        "fix_server_queries_total",
        "fix_server_query_ns",
    ] {
        assert!(metrics.contains(family), "/metrics missing {family}");
    }

    let events = http_get(addr, "/events");
    assert!(events.starts_with("HTTP/1.1 200"));
    let body = events.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        body.trim_start().starts_with('['),
        "/events not a JSON array: {body}"
    );

    let query = http_get(addr, "/query?q=%2F%2Fa%2Fb");
    assert!(query.starts_with("HTTP/1.1 200"), "GET /query: {query}");
    assert!(query.contains("\"results\""));

    let posted = http_post(addr, "/query", "//a/b");
    assert!(posted.starts_with("HTTP/1.1 200"), "POST /query: {posted}");
    assert!(posted.contains("\"results\""));

    let bad = http_post(addr, "/query", "]]]nope");
    assert!(bad.starts_with("HTTP/1.1 400"), "bad query: {bad}");
    assert!(bad.contains("\"error\""));

    let missing = http_get(addr, "/no-such-route");
    assert!(missing.starts_with("HTTP/1.1 404"));

    handle.shutdown();
}

#[test]
fn shutdown_drains_inflight_queries() {
    let db = test_db(2);
    let cfg = ServerConfig {
        debug_query_delay: Duration::from_millis(300),
        ..quiet_config()
    };
    let handle = serve(&db, cfg).unwrap();
    let addr = handle.addr();
    let want = local_answer(&db, "//a/b");

    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        client.query("//a/b")
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.inflight() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.inflight() > 0, "query never entered");

    // Shutdown must block until the in-flight query has been answered —
    // and no longer than that.
    shutdown_promptly(handle, "query in flight");
    let answered = slow
        .join()
        .unwrap()
        .expect("in-flight query must drain, not drop");
    assert_eq!(answered.results, want);

    // And the port must actually be closed afterwards: either the
    // connection is refused outright or the first query round-trip dies.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            let _ = c.set_timeout(Some(Duration::from_secs(2)));
            assert!(
                c.query("//a/b").is_err(),
                "server still serving after shutdown"
            );
        }
    }
}

#[test]
fn timed_out_client_never_returns_a_stale_answer() {
    let db = test_db(2);
    let cfg = ServerConfig {
        debug_query_delay: Duration::from_millis(300),
        ..quiet_config()
    };
    let handle = serve(&db, cfg).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    client
        .set_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    match client.query("//a/b") {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    // `//a/b`'s answer is still on its way; the timed-out connection must
    // refuse further requests rather than hand that answer to the next.
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match client.query("//d") {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotConnected),
        Ok(out) => panic!(
            "stale answer {:?} for //d (want {:?})",
            out.results,
            local_answer(&db, "//d")
        ),
        Err(other) => panic!("expected NotConnected, got {other:?}"),
    }
    assert!(client.ping().is_err(), "a broken client stays broken");

    let mut fresh = Client::connect(addr).unwrap();
    fresh.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(
        fresh.query("//d").unwrap().results,
        local_answer(&db, "//d")
    );
    handle.shutdown();
}

#[test]
fn shutdown_wakes_idle_connections() {
    let db = test_db(2);
    let handle = serve(&db, quiet_config()).unwrap();
    let addr = handle.addr();

    // One binary connection idle between requests, one that never sent
    // a byte (its thread is still waiting to tell binary from HTTP).
    let mut idle = Client::connect(addr).unwrap();
    idle.set_timeout(Some(Duration::from_secs(10))).unwrap();
    idle.ping().unwrap();
    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    shutdown_promptly(handle, "idle connections");
    // Both were closed by the server, not left hanging.
    assert!(idle.ping().is_err());
    let mut buf = [0u8; 1];
    assert!(matches!(silent.read(&mut buf), Ok(0) | Err(_)));
}

#[test]
fn shutdown_wakes_a_half_sent_http_head() {
    let db = test_db(2);
    let handle = serve(&db, quiet_config()).unwrap();
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: fi").unwrap();
    s.flush().unwrap();
    // Let the connection thread block on the rest of the head.
    std::thread::sleep(Duration::from_millis(50));
    shutdown_promptly(handle, "half-sent HTTP head");
}

#[test]
fn shutdown_wakes_a_frame_stalled_midway() {
    let db = test_db(2);
    let handle = serve(&db, quiet_config()).unwrap();
    let registry = handle.registry().clone();
    let frame = encode_request(&Request::Query {
        tenant: String::new(),
        query: "//a/b".into(),
    });
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&MAGIC).unwrap();
    s.write_all(&frame[..6]).unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    shutdown_promptly(handle, "frame stalled mid-payload");
    // A request the drain cut short is not the peer's protocol error.
    let malformed = registry.snapshot().counter("fix_server_malformed_total");
    assert_eq!(malformed.unwrap_or(0), 0);
}

#[test]
fn connects_racing_shutdown_are_served_or_refused() {
    let db = test_db(2);
    for round in 0..5 {
        let handle = serve(&db, quiet_config()).unwrap();
        let addr = handle.addr();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let stop = &stop;
                scope.spawn(move || {
                    // Each connect is either served or closed by the
                    // server; the timeout only bounds a server that hangs.
                    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                        if let Ok(mut c) = Client::connect(addr) {
                            c.set_timeout(Some(Duration::from_secs(5))).unwrap();
                            if let Err(ClientError::Io(e)) = c.ping() {
                                assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(20));
            let start = Instant::now();
            handle.shutdown();
            let took = start.elapsed();
            // Stop the racers before asserting, so a failure cannot hang
            // the scope.
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(
                took < Duration::from_secs(2),
                "round {round}: drain took {took:?}"
            );
        });
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: fixd\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "POST {path} HTTP/1.1\r\nHost: fixd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}
