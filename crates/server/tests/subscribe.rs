//! Socket-level subscription protocol suite: real `TcpStream` clients
//! against real ephemeral-port servers, covering the chunked registration
//! window, pull-side catch-up from an epoch (and its input validation),
//! the `--max-subscriptions` cap, graceful shutdown, and registration
//! deadlines.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use webreason_core::{DurableStore, FsyncPolicy, MaintenanceAlgorithm, ReasoningConfig};
use webreason_server::{Server, ServerConfig};

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("webreason-subscribe-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot_with(name: &str, config: ServerConfig, reasoning: ReasoningConfig) -> Server {
    let store = DurableStore::create(
        tmpdir(name),
        reasoning,
        NonZeroUsize::MIN,
        FsyncPolicy::Never,
    )
    .expect("store creates");
    Server::start(store, config).expect("server boots")
}

fn counting() -> ReasoningConfig {
    ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting)
}

/// Sends raw bytes, reads to EOF, returns (status, whole response text).
fn raw_round_trip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
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
    post_with_headers(addr, path, body, &[])
}

fn post_with_headers(
    addr: SocketAddr,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, String) {
    let mut raw = format!("POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (n, v) in headers {
        raw.push_str(&format!("{n}: {v}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    raw_round_trip(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    raw_round_trip(addr, raw.as_bytes())
}

fn delete(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("DELETE {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    raw_round_trip(addr, raw.as_bytes())
}

/// Extracts `"key":<u64>` from a JSON text without a parser.
fn json_u64(text: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat).unwrap_or_else(|| panic!("{key} in {text}"));
    text[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} not a number in {text}"))
}

/// Decodes a complete `Transfer-Encoding: chunked` body into its frames.
fn decode_chunks(mut body: &[u8]) -> Vec<String> {
    let mut frames = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[..line_end]).expect("chunk size utf8"),
            16,
        )
        .expect("chunk size hex");
        body = &body[line_end + 2..];
        if size == 0 {
            return frames;
        }
        frames.push(String::from_utf8_lossy(&body[..size]).to_string());
        assert_eq!(&body[size..size + 2], b"\r\n", "chunk trailer");
        body = &body[size + 2..];
    }
}

/// Registers `sparql` through `POST /subscribe` and decodes the bounded
/// window: returns (subscription id, registration epoch, frames).
fn subscribe(addr: SocketAddr, sparql: &str, headers: &[(&str, &str)]) -> (u64, u64, Vec<String>) {
    let (status, text) = post_with_headers(addr, "/subscribe", sparql, headers);
    assert_eq!(status, 200, "{text}");
    assert!(
        text.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "{text}"
    );
    let body_at = text.find("\r\n\r\n").expect("head ends") + 4;
    let frames = decode_chunks(&text.as_bytes()[body_at..]);
    assert_eq!(frames.len(), 3, "{frames:?}");
    assert!(frames[1].contains("\"reset\":true"), "{}", frames[1]);
    (
        json_u64(&frames[0], "id"),
        json_u64(&frames[0], "epoch"),
        frames,
    )
}

const MAMMALS: &str = "SELECT ?x WHERE { ?x a <http://ex/Mammal> }";
const SCHEMA: &str =
    "insert <http://ex/Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Mammal> .";
const TOM_IS_CAT: &str =
    "<http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Cat> .";

#[test]
fn streaming_frames_round_trip_entailed_insert_and_delete() {
    let server = boot_with(
        "stream",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..Default::default()
        },
        counting(),
    );
    let addr = server.local_addr();
    let (status, _) = post(addr, "/update", SCHEMA);
    assert_eq!(status, 200);

    let (id, epoch0, _) = subscribe(addr, MAMMALS, &[]);
    assert!(id >= 1);
    assert_eq!(server.subscriptions_live(), 1);

    // Inserting `Tom a Cat` entails `Tom a Mammal`: the subscriber gets
    // the *entailed* delta, tagged with the publishing epoch.
    let (status, text) = post(addr, "/update", &format!("insert {TOM_IS_CAT}"));
    assert_eq!(status, 200, "{text}");
    let update_epoch = json_u64(&text, "epoch");
    assert!(update_epoch > epoch0);
    let (status, batch) = get(addr, &format!("/subscribe/{id}?from={epoch0}"));
    assert_eq!(status, 200, "{batch}");
    assert_eq!(json_u64(&batch, "epoch"), update_epoch, "{batch}");
    assert!(batch.contains("\"reset\":false"), "{batch}");
    assert!(
        batch.contains("\"row\":[\"<http://ex/Tom>\"],\"delta\":1"),
        "{batch}"
    );

    // Deleting the explicit fact retracts the entailment: delta −1.
    let (status, text) = post(addr, "/update", &format!("delete {TOM_IS_CAT}"));
    assert_eq!(status, 200, "{text}");
    let (status, batch) = get(addr, &format!("/subscribe/{id}?from={update_epoch}"));
    assert_eq!(status, 200, "{batch}");
    assert!(
        batch.contains("\"row\":[\"<http://ex/Tom>\"],\"delta\":-1"),
        "{batch}"
    );
    assert!(!batch.contains("\"delta\":1"), "{batch}");

    // Client-side cancellation ends the stream: the subscription is gone.
    let (status, text) = delete(addr, &format!("/subscribe/{id}"));
    assert_eq!(status, 200, "{text}");
    assert_eq!(server.subscriptions_live(), 0);
    let (status, _) = delete(addr, &format!("/subscribe/{id}"));
    assert_eq!(status, 404, "double-cancel");

    drop(server.shutdown());
}

#[test]
fn reactor_window_then_catchup_from_epoch() {
    let server = boot_with(
        "catchup",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..Default::default()
        },
        counting(),
    );
    let addr = server.local_addr();
    let (status, _) = post(addr, "/update", SCHEMA);
    assert_eq!(status, 200);

    // The bounded window: header, initial snapshot, `next` link, then the
    // 0-chunk — the response *ends* and the client polls.
    let (id, epoch0, frames) = subscribe(addr, MAMMALS, &[]);
    assert!(
        frames[2].contains(&format!("\"next\":\"/subscribe/{id}?from={epoch0}\"")),
        "{}",
        frames[2]
    );

    // Two published epochs while the client is away.
    let (status, text) = post(addr, "/update", &format!("insert {TOM_IS_CAT}"));
    assert_eq!(status, 200);
    let e1 = json_u64(&text, "epoch");
    let (status, text) = post(
        addr,
        "/update",
        "insert <http://ex/Jerry> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Mammal> .",
    );
    assert_eq!(status, 200);
    let e2 = json_u64(&text, "epoch");

    // Catch-up from the registration epoch: both batches, in order.
    let (status, text) = get(addr, &format!("/subscribe/{id}?from={epoch0}"));
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"terminal\":null"), "{text}");
    let tom = text
        .find("<http://ex/Tom>")
        .unwrap_or_else(|| panic!("{text}"));
    let jerry = text
        .find("<http://ex/Jerry>")
        .unwrap_or_else(|| panic!("{text}"));
    assert!(tom < jerry, "publication order: {text}");
    assert!(text.contains(&format!("\"epoch\":{e1}")), "{text}");
    assert!(text.contains(&format!("\"epoch\":{e2}")), "{text}");

    // From the newer epoch: only the later batch.
    let (status, text) = get(addr, &format!("/subscribe/{id}?from={e1}"));
    assert_eq!(status, 200);
    assert!(!text.contains("<http://ex/Tom>"), "{text}");
    assert!(text.contains("<http://ex/Jerry>"), "{text}");

    // From before the log's anchor: one snapshot-reset batch carrying the
    // complete current answer.
    let (status, text) = get(addr, &format!("/subscribe/{id}?from=0"));
    assert_eq!(status, 200);
    assert!(text.contains("\"reset\":true"), "{text}");
    assert!(
        text.contains("<http://ex/Tom>") && text.contains("<http://ex/Jerry>"),
        "{text}"
    );

    // Unknown ids and non-numeric ids are clean errors.
    let (status, _) = get(addr, "/subscribe/999?from=0");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/subscribe/nope?from=0");
    assert_eq!(status, 400);

    let (status, _) = delete(addr, &format!("/subscribe/{id}"));
    assert_eq!(status, 200);
    let (status, _) = get(addr, &format!("/subscribe/{id}?from=0"));
    assert_eq!(status, 404, "catch-up after cancel");

    drop(server.shutdown());
}

#[test]
fn malformed_from_is_a_400_and_a_missing_one_means_zero() {
    let server = boot_with(
        "from",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..Default::default()
        },
        counting(),
    );
    let addr = server.local_addr();
    let (status, _) = post(addr, "/update", &format!("{SCHEMA}\ninsert {TOM_IS_CAT}"));
    assert_eq!(status, 200);
    let (id, epoch0, _) = subscribe(addr, MAMMALS, &[]);

    // A present but non-integer `from` must not silently become a full
    // reset snapshot.
    for bad in ["abc", "", "-1", "1.5"] {
        let (status, text) = get(addr, &format!("/subscribe/{id}?from={bad}"));
        assert_eq!(status, 400, "from={bad:?}: {text}");
        assert!(text.contains("\"error\":\"bad_request\""), "{text}");
        assert!(!text.contains("\"reset\""), "{text}");
    }

    // No `from` at all still means epoch 0: the reset snapshot.
    let (status, text) = get(addr, &format!("/subscribe/{id}"));
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"reset\":true"), "{text}");
    assert!(text.contains("<http://ex/Tom>"), "{text}");
    // A well-formed current epoch: nothing new.
    let (status, text) = get(addr, &format!("/subscribe/{id}?from={epoch0}"));
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"batches\":[]"), "{text}");

    drop(server.shutdown());
}

#[test]
fn max_subscriptions_cap_refuses_then_admits_after_cancel() {
    let server = boot_with(
        "cap",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            max_subscriptions: 1,
            ..Default::default()
        },
        counting(),
    );
    let addr = server.local_addr();

    let (id, _, _) = subscribe(addr, MAMMALS, &[]);

    // Note a *different* query: the cap is on subscribers, not views.
    let (status, text) = post(
        addr,
        "/subscribe",
        "SELECT ?x WHERE { ?x a <http://ex/Cat> }",
    );
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("subscription_limit"), "{text}");
    assert!(text.contains("Retry-After"), "{text}");

    let (status, _) = delete(addr, &format!("/subscribe/{id}"));
    assert_eq!(status, 200);
    let (status, text) = post(addr, "/subscribe", MAMMALS);
    assert_eq!(status, 200, "slot freed: {text}");

    drop(server.shutdown());
}

#[test]
fn reactor_shutdown_with_pull_subscribers_is_clean_and_registration_is_refused() {
    let server = boot_with(
        "shutdown-reactor",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..Default::default()
        },
        counting(),
    );
    let addr = server.local_addr();
    let (status, _) = post(addr, "/subscribe", MAMMALS);
    assert_eq!(status, 200);
    // Shutdown with a registered pull subscriber must not hang; after it,
    // the port is gone (polling clients treat the refused connect as the
    // shutdown signal).
    let store = server.shutdown();
    assert!(TcpStream::connect(addr).is_err(), "port still open");
    drop(store);
}

#[test]
fn registration_deadline_expiry_is_a_504() {
    // Reformulation + a wide class hierarchy: the initial materialization
    // reformulates into 364 union branches over 36k instances (~50 ms in
    // a release build). The 10 ms deadline sits far above the idle
    // dispatch wait, so it expires inside registration (504), not in the
    // dispatch queue (503).
    let server = boot_with(
        "deadline",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..Default::default()
        },
        ReasoningConfig::Reformulation,
    );
    let addr = server.local_addr();
    const SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    let mut lines = Vec::new();
    for c in 0..363 {
        lines.push(format!(
            "insert <http://ex/C{c}> <{SUBCLASS}> <http://ex/Thing> ."
        ));
        for i in 0..100 {
            lines.push(format!(
                "insert <http://ex/i{c}x{i}> <{RDF_TYPE}> <http://ex/C{c}> ."
            ));
        }
    }
    for chunk in lines.chunks(10_000) {
        let (status, text) = post(addr, "/update", &chunk.join("\n"));
        assert_eq!(status, 200, "fixture chunk failed: {text}");
    }

    let query = "SELECT ?x WHERE { ?x a <http://ex/Thing> }";
    let start = Instant::now();
    let (status, text) = post_with_headers(
        addr,
        "/subscribe",
        query,
        &[("X-Webreason-Deadline-Ms", "10")],
    );
    assert_eq!(status, 504, "{text}");
    assert!(text.contains("deadline_exceeded"), "{text}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "504 was not prompt"
    );
    assert_eq!(server.subscriptions_live(), 0, "nothing half-registered");

    // The identical registration without a deadline succeeds and its
    // catch-up delivers the next update.
    let (id, epoch, _) = subscribe(addr, query, &[]);
    let (status, text) = post(
        addr,
        "/update",
        &format!("insert <http://ex/late> <{RDF_TYPE}> <http://ex/C0> ."),
    );
    assert_eq!(status, 200, "{text}");
    let (status, batch) = get(addr, &format!("/subscribe/{id}?from={epoch}"));
    assert_eq!(status, 200, "{batch}");
    assert!(batch.contains("<http://ex/late>"), "{batch}");

    drop(server.shutdown());
}
