//! Socket-level integration suite: a real `TcpStream` client against a
//! real ephemeral-port server, covering the round-trips, the 4xx
//! robustness contract, queue backpressure, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use webreason_core::{DurableStore, FsyncPolicy, MaintenanceAlgorithm, ReasoningConfig};
use webreason_server::{Server, ServerConfig};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webreason-server-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(name: &str, config: ServerConfig) -> Server {
    boot_reasoning(
        name,
        config,
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
    )
}

fn boot_reasoning(name: &str, config: ServerConfig, reasoning: ReasoningConfig) -> Server {
    let store = DurableStore::create(
        tmpdir(name),
        reasoning,
        NonZeroUsize::MIN,
        FsyncPolicy::Never,
    )
    .expect("store creates");
    Server::start(store, config).expect("server boots")
}

fn ephemeral() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        ..Default::default()
    }
}

/// Sends raw bytes, reads to EOF, returns (status, whole response text).
fn raw_round_trip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    stream.write_all(raw).expect("request writes");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("response reads");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_round_trip(addr, raw.as_bytes())
}

fn post_with_strategy(addr: SocketAddr, body: &str, strategy: &str) -> (u16, String) {
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         X-Webreason-Strategy: {strategy}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_round_trip(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    raw_round_trip(addr, raw.as_bytes())
}

/// Reads exactly one response off a keep-alive connection (head, then
/// `Content-Length` bytes of body) without waiting for EOF.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut tmp).expect("response head reads");
        assert!(n > 0, "EOF before a full response head: {buf:?}");
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let clen: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().expect("content-length parses"))
        })
        .unwrap_or(0);
    while buf.len() < head_end + clen {
        let n = stream.read(&mut tmp).expect("response body reads");
        assert!(n > 0, "EOF mid-body");
        buf.extend_from_slice(&tmp[..n]);
    }
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    (
        status,
        String::from_utf8_lossy(&buf[..head_end + clen]).to_string(),
    )
}

/// Pulls one counter/gauge value out of a `/metrics` scrape.
fn metric_value(addr: SocketAddr, name: &str) -> u64 {
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    text.lines()
        .find_map(|l| {
            let v = l.strip_prefix(name)?;
            if !v.starts_with(' ') {
                return None; // a longer metric name sharing this prefix
            }
            Some(v.trim().parse().expect("metric parses"))
        })
        .unwrap_or_else(|| panic!("{name} missing from scrape"))
}

const COUNT_MAMMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";

#[test]
fn query_update_metrics_round_trip() {
    let server = boot("round-trip", ephemeral());
    let addr = server.local_addr();

    let (status, text) = get(addr, "/health");
    assert_eq!(status, 200, "{text}");

    // Empty store answers empty.
    let (status, text) = post(addr, "/query", COUNT_MAMMALS);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"rows\":[]"), "{text}");

    // Schema + instance through /update: entailment shows in /query.
    let (status, text) = post(
        addr,
        "/update",
        "# zoo\n\
         insert <http://ex/Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Mammal> .\n\
         insert <http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Cat> .\n",
    );
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"accepted\":2"), "{text}");

    let (status, text) = post(addr, "/query", COUNT_MAMMALS);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("<http://ex/Tom>"), "entailed answer: {text}");

    // Delete retracts the entailment.
    let (status, text) = post(
        addr,
        "/update",
        "delete <http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Cat> .\n",
    );
    assert_eq!(status, 200, "{text}");
    let (status, text) = post(addr, "/query", COUNT_MAMMALS);
    assert_eq!(status, 200);
    assert!(text.contains("\"rows\":[]"), "{text}");

    // Metrics reflect the traffic and stay machine-readable.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let body = text.split("\r\n\r\n").nth(1).expect("metrics body");
    obs::lint_prometheus_text(body).expect("prometheus output lints");
    assert!(
        body.contains("webreason_server_query_requests_total"),
        "{body}"
    );
    assert!(
        body.contains("webreason_server_update_applied_total"),
        "{body}"
    );
    assert!(
        body.contains("webreason_server_update_queue_capacity"),
        "{body}"
    );

    let store = server.shutdown();
    assert_eq!(store.stats().base_triples, 1, "schema triple remains");
}

/// `POST /update` replies count explicit triples under every strategy: a
/// constraint and an instance triple count one each, their entailed
/// consequences none, and deleting an entailed-but-unasserted triple is a
/// no-op that leaves it answerable.
#[test]
fn update_replies_count_explicit_triples_under_every_strategy() {
    const SUB_CLASS_OF: &str = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>";
    const A: &str = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
    for (i, reasoning) in ReasoningConfig::ALL.into_iter().enumerate() {
        let name = reasoning.name();
        let server = boot_reasoning(&format!("write-contract-{i}"), ephemeral(), reasoning);
        let addr = server.local_addr();
        for (script, reply) in [
            (
                format!("insert <http://ex/Cat> {SUB_CLASS_OF} <http://ex/Mammal> .\n"),
                "\"added\":1,\"removed\":0",
            ),
            (
                format!("insert <http://ex/Tom> {A} <http://ex/Cat> .\n"),
                "\"added\":1,\"removed\":0",
            ),
            (
                format!("delete <http://ex/Tom> {A} <http://ex/Mammal> .\n"),
                "\"added\":0,\"removed\":0",
            ),
        ] {
            let (status, text) = post(addr, "/update", &script);
            assert_eq!(status, 200, "{name}: {text}");
            assert!(text.contains(reply), "{name}: {script} replied {text}");
        }
        let (status, text) = post(addr, "/query", COUNT_MAMMALS);
        assert_eq!(status, 200, "{name}: {text}");
        assert!(text.contains("<http://ex/Tom>"), "{name}: {text}");
        assert_eq!(server.shutdown().stats().base_triples, 2, "{name}");
    }
}

#[test]
fn strategy_header_selects_interval_and_rejects_unservable_names() {
    let server = boot_reasoning("strategy-header", ephemeral(), ReasoningConfig::Interval);
    let addr = server.local_addr();

    let (status, text) = post(
        addr,
        "/update",
        "insert <http://ex/Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Mammal> .\n\
         insert <http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Cat> .\n",
    );
    assert_eq!(status, 200, "{text}");

    // The store's own configuration answers through interval rewriting.
    let (status, text) = post(addr, "/query", COUNT_MAMMALS);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("<http://ex/Tom>"), "{text}");
    assert!(text.contains("\"range_scans\""), "interval stats: {text}");

    // Explicit per-query overrides: both rewriting strategies answer
    // identically on the same snapshot.
    for strategy in ["interval", "reformulation"] {
        let (status, text) = post_with_strategy(addr, COUNT_MAMMALS, strategy);
        assert_eq!(status, 200, "{strategy}: {text}");
        assert!(text.contains("<http://ex/Tom>"), "{strategy}: {text}");
    }

    // Saturation needs a materialised G∞ this configuration never builds,
    // and unknown names (backward chaining is a library, not a served
    // strategy) are refused outright — all as a clean 400.
    for strategy in ["saturation", "backward-chaining", "bogus"] {
        let (status, text) = post_with_strategy(addr, COUNT_MAMMALS, strategy);
        assert_eq!(status, 400, "{strategy}: {text}");
        assert!(text.contains("bad_strategy"), "{strategy}: {text}");
    }
    let (_, text) = post_with_strategy(addr, COUNT_MAMMALS, "backward-chaining");
    assert!(
        text.contains("saturation, reformulation or interval"),
        "the refusal lists the servable names: {text}"
    );
    assert!(metric_value(addr, "webreason_server_query_bad_strategy_total") >= 4);

    server.shutdown();
}

#[test]
fn malformed_inputs_get_4xx_without_killing_workers() {
    let server = boot("malformed", ephemeral());
    let addr = server.local_addr();

    // Garbage request line.
    let (status, _) = raw_round_trip(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    // Smuggling attempt: both framings at once.
    let (status, _) = raw_round_trip(
        addr,
        b"POST /update HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 400);
    // Unknown path / wrong method.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/query");
    assert_eq!(status, 405);
    // Malformed SPARQL and malformed update script.
    let (status, text) = post(addr, "/query", "SELECT WHERE garbage {{{");
    assert_eq!(status, 400, "{text}");
    let (status, text) = post(addr, "/update", "upsert <a> <b> <c> .");
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("line 1"), "{text}");

    // After all of that the workers still serve.
    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200);
    let (status, text) = post(addr, "/query", COUNT_MAMMALS);
    assert_eq!(status, 200, "{text}");

    drop(server.shutdown());
}

#[test]
fn oversized_bodies_are_rejected_not_buffered() {
    let mut config = ephemeral();
    config.limits.max_body_bytes = 256;
    let server = boot("oversized", config);
    let addr = server.local_addr();

    let big = "x".repeat(1024);
    let (status, _) = post(addr, "/query", &big);
    assert_eq!(status, 413);

    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200, "server survives oversized bodies");
    drop(server.shutdown());
}

#[test]
fn full_update_queue_backpressures_with_429() {
    let mut config = ephemeral();
    config.threads = 4;
    config.update_queue = 1;
    config.retry_after_secs = 7;
    config.writer_delay = Some(Duration::from_millis(400));
    let server = boot("backpressure", config);
    let addr = server.local_addr();

    let insert = |i: usize| format!("insert <http://ex/s{i}> <http://ex/p> <http://ex/o> .\n");
    // A occupies the writer (sleeping in the delay hook); B fills the
    // one-slot queue. Both run on their own threads because they block
    // until applied.
    let a = {
        let body = insert(0);
        std::thread::spawn(move || post(addr, "/update", &body))
    };
    std::thread::sleep(Duration::from_millis(100));
    let b = {
        let body = insert(1);
        std::thread::spawn(move || post(addr, "/update", &body))
    };
    std::thread::sleep(Duration::from_millis(100));

    // C finds the queue full: 429 + Retry-After, immediately.
    let (status, text) = post(addr, "/update", &insert(2));
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("Retry-After: 7"), "{text}");

    let (status, text) = a.join().expect("client A");
    assert_eq!(status, 200, "{text}");
    let (status, text) = b.join().expect("client B");
    assert_eq!(status, 200, "{text}");

    // Queue drained: the retried update now lands.
    let (status, text) = post(addr, "/update", &insert(2));
    assert_eq!(status, 200, "{text}");

    let store = server.shutdown();
    assert_eq!(store.stats().base_triples, 3, "A, B and the retried C");
}

#[test]
fn graceful_shutdown_serves_parsed_requests_and_503s_partial_ones() {
    let mut config = ephemeral();
    config.threads = 2;
    config.writer_delay = Some(Duration::from_millis(400));
    let server = boot("shutdown", config);
    let addr = server.local_addr();

    // P parks one worker on a forever-incomplete request.
    let mut partial = TcpStream::connect(addr).expect("connects");
    partial
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    partial
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-prefix")
        .expect("partial writes");
    std::thread::sleep(Duration::from_millis(50));

    // A's update is in flight: the other worker blocks on the writer.
    let a = std::thread::spawn(move || {
        post(
            addr,
            "/update",
            "insert <http://ex/s> <http://ex/p> <http://ex/o> .\n",
        )
    });
    std::thread::sleep(Duration::from_millis(100));

    // B's query is fully received but still waiting for a free worker.
    let b = std::thread::spawn(move || post(addr, "/query", COUNT_MAMMALS));
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown begins while A is mid-apply, B is received-but-undispatched
    // and P is incomplete.
    let shut = std::thread::spawn(move || server.shutdown());

    // In-flight work completes: A's journaled update is acknowledged.
    let (status, text) = a.join().expect("client A");
    assert_eq!(status, 200, "in-flight update drains: {text}");
    // B's request was fully received before the flag — the drain contract
    // says *serve* it, not 503 it.
    let (status, text) = b.join().expect("client B");
    assert_eq!(status, 200, "fully-received request is served: {text}");
    assert!(text.contains("Connection: close"), "{text}");
    // The half-request can never complete: clean 503 + explicit close.
    let mut text = String::new();
    partial.read_to_string(&mut text).expect("partial reads");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    let store = shut.join().expect("shutdown returns");
    assert_eq!(store.stats().base_triples, 1, "A's triple survived");
}

#[test]
fn http10_closes_by_default_and_keep_alive_opts_in() {
    let server = boot("http10", ephemeral());
    let addr = server.local_addr();

    // A 1.0 request without a Connection header must close after the
    // response (the client would otherwise hang waiting for EOF) and say
    // so explicitly.
    let (status, text) = raw_round_trip(addr, b"GET /health HTTP/1.0\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    assert_eq!(text.matches("HTTP/1.1 200").count(), 1, "{text}");

    // Explicit keep-alive persists: two 1.0 requests on one connection,
    // the second falling back to the close-by-default.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let keep = "GET /health HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
    let last = "GET /health HTTP/1.0\r\nHost: t\r\n\r\n";
    stream
        .write_all(format!("{keep}{last}").as_bytes())
        .expect("pipeline writes");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("responses read");
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");

    drop(server.shutdown());
}

#[test]
fn invalid_script_line_rejects_the_whole_batch_atomically() {
    let server = boot("atomic", ephemeral());
    let addr = server.local_addr();
    let dir = std::env::temp_dir().join(format!("webreason-server-atomic-{}", std::process::id()));
    let reader = server.reader();

    // Pre-state: one acknowledged triple.
    let (status, _) = post(
        addr,
        "/update",
        "insert <http://ex/pre> <http://ex/p> <http://ex/o> .\n",
    );
    assert_eq!(status, 200);
    let journal_before =
        std::fs::read(dir.join(webreason_core::durable::JOURNAL_FILE)).expect("journal reads");
    let epoch_before = reader.snapshot().epoch();

    // A script whose third line cannot decode: 400, and the valid prefix
    // must NOT apply — the batch is atomic.
    let (status, text) = post(
        addr,
        "/update",
        "insert <http://ex/part1> <http://ex/p> <http://ex/o> .\n\
         insert <http://ex/part2> <http://ex/p> <http://ex/o> .\n\
         frobnicate <http://ex/part3> <http://ex/p> <http://ex/o> .\n",
    );
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("line 3"), "{text}");

    // No state change anywhere: the journal is bit-identical, no new
    // epoch was ever published, and a reader sees none of the script.
    let journal_after =
        std::fs::read(dir.join(webreason_core::durable::JOURNAL_FILE)).expect("journal reads");
    assert_eq!(journal_before, journal_after, "journal untouched");
    assert_eq!(reader.snapshot().epoch(), epoch_before, "no publish");
    let q = "PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:part1 ex:p ?o }";
    let (sols, _, _) = reader.answer_sparql(q).expect("query answers");
    assert_eq!(sols.len(), 0, "rejected script is invisible to readers");

    // Recovery of the journal equals the pre-request state.
    let store = server.shutdown();
    assert_eq!(store.stats().base_triples, 1, "only the pre-state triple");
    let rec = webreason_core::Store::recover(&dir).expect("recovers");
    assert_eq!(rec.export_ntriples(), store.store().export_ntriples());
}

#[test]
fn keep_alive_and_pipelining_serve_multiple_requests_per_connection() {
    let server = boot("keepalive", ephemeral());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    // Two pipelined health checks, then a closing one.
    let one = "GET /health HTTP/1.1\r\nHost: t\r\n\r\n";
    let last = "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    stream
        .write_all(format!("{one}{one}{last}").as_bytes())
        .expect("pipeline writes");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("responses read");
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 3, "{text}");

    drop(server.shutdown());
}

// --- reactor robustness -------------------------------------------------

#[test]
fn slowloris_headers_are_reaped_without_stalling_others() {
    let mut config = ephemeral();
    config.idle_timeout = Duration::from_millis(300);
    let server = boot("slowloris", config);
    let addr = server.local_addr();

    // The attacker trickles header bytes forever, one at a time, never
    // sending the blank line. The read-phase deadline is armed at the
    // first byte and must NOT slide on progress — so this connection dies
    // ~300ms in, however diligently it drips.
    let attacker = std::thread::spawn(move || {
        let mut slow = TcpStream::connect(addr).expect("connects");
        let doc = b"GET /health HTTP/1.1\r\nX-Slow: aaaaaaaa\r\n";
        for i in 0..200 {
            if slow.write_all(&[doc[i % doc.len()]]).is_err() {
                return true; // reaped: the server reset us
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        false
    });

    // Meanwhile everyone else is served normally.
    for _ in 0..4 {
        let (status, text) = get(addr, "/health");
        assert_eq!(status, 200, "victim starved by a slowloris: {text}");
        std::thread::sleep(Duration::from_millis(50));
    }

    assert!(
        attacker.join().expect("attacker thread"),
        "slowloris connection was never reaped"
    );
    assert!(
        metric_value(addr, "webreason_server_reactor_reaped_total") >= 1,
        "reap not visible in metrics"
    );
    drop(server.shutdown());
}

/// Caps a socket's kernel receive buffer so a stalled reader's window
/// stays small and the server genuinely blocks on the write.
fn shrink_rcvbuf(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let sz: i32 = 16 * 1024;
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &sz, 4) };
    assert_eq!(rc, 0, "SO_RCVBUF sets");
}

#[test]
fn stalled_reader_of_a_large_response_is_reaped() {
    let mut config = ephemeral();
    config.idle_timeout = Duration::from_millis(400);
    let server = boot("stalled-reader", config);
    let addr = server.local_addr();

    // Stage a response far larger than any socket buffering: 400 triples
    // sharing one object make a 400×400 self-join (~160k rows, ~11MB) —
    // the server must park in the write phase waiting for a reader that
    // never comes back.
    let mut script = String::new();
    for i in 0..400 {
        script.push_str(&format!(
            "insert <http://ex/s{i}> <http://ex/p> <http://ex/hub> .\n"
        ));
    }
    let (status, text) = post(addr, "/update", &script);
    assert_eq!(status, 200, "{text}");

    let mut stalled = TcpStream::connect(addr).expect("connects");
    shrink_rcvbuf(&stalled);
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let q = "SELECT ?a ?b WHERE { ?a <http://ex/p> ?h . ?b <http://ex/p> ?h }";
    stalled
        .write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{q}",
                q.len()
            )
            .as_bytes(),
        )
        .expect("query writes");

    // ...and then never reads. The write-phase deadline is armed when the
    // response starts flowing and holds while the reader stalls. Wait for
    // this server's own gauge to confirm the reap: once the stalled
    // connection dies, the only open connection is the scrape itself.
    let t0 = Instant::now();
    loop {
        let open = metric_value(addr, "webreason_server_open_connections");
        if open <= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "stalled reader never reaped ({open} connections still open)"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Other clients were never blocked behind the stalled writer.
    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200);

    // Drain whatever made it through: the connection must be dead
    // mid-response, short of the advertised Content-Length.
    let mut buf = Vec::new();
    let _ = stalled.read_to_end(&mut buf); // reset mid-read is also fine
    let text = String::from_utf8_lossy(&buf);
    let head_end = text.find("\r\n\r\n").map(|i| i + 4).unwrap_or(buf.len());
    let clen: usize = text
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().unwrap())
        })
        .expect("response head made it into the buffers");
    assert!(
        buf.len() < head_end + clen,
        "read {} of {} body bytes — the stalled reader was never reaped",
        buf.len() - head_end,
        clen
    );
    drop(server.shutdown());
}

#[test]
fn connection_limit_refuses_excess_with_503() {
    let mut config = ephemeral();
    config.max_conns = 2;
    let server = boot("conn-limit", config);
    let addr = server.local_addr();

    // Two keep-alive connections occupy the table...
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("request writes");
        let (status, _) = read_one_response(&mut s);
        assert_eq!(status, 200);
        held.push(s);
    }

    // ...so the third is refused at accept with an explicit 503.
    let mut third = TcpStream::connect(addr).expect("connects");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let mut text = String::new();
    third.read_to_string(&mut text).expect("refusal reads");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("connection limit"), "{text}");

    // Releasing a slot readmits new clients.
    drop(held.pop());
    let mut ok = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        let mut s = TcpStream::connect(addr).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("request writes");
        let mut text = String::new();
        s.read_to_string(&mut text).expect("response reads");
        if text.starts_with("HTTP/1.1 200") {
            ok = true;
            break;
        }
    }
    assert!(ok, "freed slot never readmitted a client");
    drop(server.shutdown());
}

#[test]
fn reactor_answers_429_immediately_while_the_writer_is_busy() {
    let mut config = ephemeral();
    config.threads = 4;
    config.update_queue = 1;
    config.retry_after_secs = 3;
    config.writer_delay = Some(Duration::from_millis(400));
    let server = boot("reactor-429", config);
    let addr = server.local_addr();

    let insert = |i: usize| format!("insert <http://ex/r{i}> <http://ex/p> <http://ex/o> .\n");
    let a = {
        let body = insert(0);
        std::thread::spawn(move || post(addr, "/update", &body))
    };
    std::thread::sleep(Duration::from_millis(100));
    let b = {
        let body = insert(1);
        std::thread::spawn(move || post(addr, "/update", &body))
    };
    std::thread::sleep(Duration::from_millis(100));

    // The writer is parked in its 400ms delay hook and the queue is full.
    // The reactor must answer 429 from a CPU worker without ever touching
    // the writer — i.e. well inside the writer's delay.
    let t0 = Instant::now();
    let (status, text) = post(addr, "/update", &insert(2));
    let elapsed = t0.elapsed();
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("Retry-After: 3"), "{text}");
    assert!(
        elapsed < Duration::from_millis(300),
        "429 took {elapsed:?} — the reactor path blocked behind the writer"
    );

    let (status, _) = a.join().expect("client A");
    assert_eq!(status, 200);
    let (status, _) = b.join().expect("client B");
    assert_eq!(status, 200);
    drop(server.shutdown());
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_promptly() {
    let server = boot("shutdown-idle", ephemeral());
    let addr = server.local_addr();

    let mut idle = TcpStream::connect(addr).expect("connects");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    idle.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request writes");
    let (status, _) = read_one_response(&mut idle);
    assert_eq!(status, 200);

    // An idle keep-alive connection owes the server nothing; shutdown
    // must not wait out the idle timeout (10s here) to drain it.
    let t0 = Instant::now();
    drop(server.shutdown());
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "shutdown hung {:?} on an idle connection",
        t0.elapsed()
    );
    let mut rest = String::new();
    idle.read_to_string(&mut rest).expect("EOF reads");
    assert!(rest.is_empty(), "unexpected bytes after shutdown: {rest}");
}

#[test]
fn one_client_thread_holds_256_keep_alive_connections() {
    // 256 client fds plus the server's 256 fit the default 1024-fd limit.
    const CONNS: usize = 256;
    let server = boot("conn-scale", ephemeral());
    let addr = server.local_addr();
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{COUNT_MAMMALS}",
        COUNT_MAMMALS.len()
    );

    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connects");
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout sets");
            s
        })
        .collect();
    // Every query is in flight before the first reply is read.
    for s in &mut conns {
        s.write_all(request.as_bytes()).expect("query writes");
    }
    for s in &mut conns {
        let (status, text) = read_one_response(s);
        assert_eq!(status, 200, "{text}");
    }
    let open = metric_value(addr, "webreason_server_open_connections");
    assert!(open >= CONNS as u64, "only {open} connections open");

    // Each held connection is still alive for another round-trip.
    for s in &mut conns {
        s.write_all(request.as_bytes()).expect("query writes");
        let (status, text) = read_one_response(s);
        assert_eq!(status, 200, "{text}");
    }
    drop(conns);
    drop(server.shutdown());
}
