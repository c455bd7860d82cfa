//! Graceful-degradation suite: request deadlines (504s that arrive
//! *before* the uncapped query would have finished), the `/health` vs
//! `/ready` split, uniform error bodies, conn-limit `Retry-After`, and —
//! under `--features failpoints` — the read-only degraded mode: a journal
//! ENOSPC/EIO fails the in-flight write, flips the server read-only,
//! keeps queries flowing, and heals automatically once the supervisor's
//! probe write reaches the disk again.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use webreason_core::{DurableStore, FsyncPolicy, ReasoningConfig};
use webreason_server::{Server, ServerConfig};

/// Failpoints are process-global: an armed journal failpoint fails every
/// server in this binary that writes. So every test holds this lock, and
/// each test that arms a failpoint disarms it on the way out.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webreason-degrade-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot_with(name: &str, config: ServerConfig, reasoning: ReasoningConfig) -> Server {
    boot_fsync(name, config, reasoning, FsyncPolicy::Never)
}

fn boot_fsync(
    name: &str,
    config: ServerConfig,
    reasoning: ReasoningConfig,
    fsync: FsyncPolicy,
) -> Server {
    let store = DurableStore::create(tmpdir(name), reasoning, NonZeroUsize::MIN, fsync)
        .expect("store creates");
    Server::start(store, config).expect("server boots")
}

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
    post_with_headers(addr, path, body, &[])
}

fn post_with_headers(
    addr: SocketAddr,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, String) {
    let mut extra = String::new();
    for (k, v) in headers {
        extra.push_str(&format!("{k}: {v}\r\n"));
    }
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_round_trip(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    raw_round_trip(addr, raw.as_bytes())
}

/// Pulls one counter/gauge value out of a `/metrics` scrape; 0 when the
/// counter has never been touched (and so is absent from the scrape).
fn metric_or_zero(addr: SocketAddr, name: &str) -> u64 {
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    text.lines()
        .find_map(|l| {
            let v = l.strip_prefix(name)?;
            if !v.starts_with(' ') {
                return None;
            }
            Some(v.trim().parse().expect("metric parses"))
        })
        .unwrap_or(0)
}

/// Loads a wide reformulation fixture over `/update`: `classes`
/// subclasses of `ex:Thing`, `per` instances each, so the probe query
/// reformulates into a `classes + 1`-branch union.
fn load_wide_hierarchy(addr: SocketAddr, classes: usize, per: usize) {
    const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    const SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    let mut lines: Vec<String> = Vec::new();
    for c in 0..classes {
        lines.push(format!(
            "insert <http://ex/C{c}> <{SUBCLASS}> <http://ex/Thing> ."
        ));
        for i in 0..per {
            lines.push(format!(
                "insert <http://ex/i{c}x{i}> <{RDF_TYPE}> <http://ex/C{c}> ."
            ));
        }
    }
    for chunk in lines.chunks(10_000) {
        let (status, text) = post(addr, "/update", &chunk.join("\n"));
        assert_eq!(status, 200, "fixture chunk failed: {text}");
    }
}

const THING_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/Thing> }";

#[test]
fn health_is_liveness_and_ready_reports_ok() {
    let _guard = serial();
    let server = boot_with(
        "ready",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 1,
            ..Default::default()
        },
        ReasoningConfig::Reformulation,
    );
    let addr = server.local_addr();
    let (status, text) = get(addr, "/health");
    assert_eq!(status, 200, "{text}");
    let (status, text) = get(addr, "/ready");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("ready"), "{text}");
    drop(server.shutdown());
}

#[test]
fn deadline_capped_union_times_out_with_504() {
    let _guard = serial();
    // The token is stamped when the reactor enqueues the request. A 10 ms
    // deadline sits far above the idle dispatch wait, so it expires
    // *inside* the 6 001-branch union evaluation over 300k instances
    // (504), not while queued (the pre-dispatch 503 shed is separate).
    // The fixture is sized so that a full evaluation takes at least five
    // times the deadline in a release build: on a 2-vCPU host it takes
    // 63–74 ms. Branches, not rows, carry the cost, most of it in building
    // the branch trie: 363 classes of 800 instances evaluate in ~7 ms. If
    // the evaluation of many one-atom branches gets cheaper, widen the
    // fixture again.
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
    load_wide_hierarchy(addr, 6_000, 50);
    // A first, uncapped answer caches the query's rewriting, so the capped
    // run spends its deadline in the union evaluation, which polls the
    // token, and not in the reformulation, which does not and whose
    // subsumption pruning grows with the square of the branch count
    // (~210 ms here in a release build, seconds in a debug one).
    let (status, text) = post(addr, "/query", THING_QUERY);
    assert_eq!(status, 200, "{text}");

    let start = Instant::now();
    let (status, text) = post_with_headers(
        addr,
        "/query",
        THING_QUERY,
        &[("X-Webreason-Deadline-Ms", "10")],
    );
    let elapsed = start.elapsed();
    assert_eq!(status, 504, "{text}");
    assert!(text.contains("deadline_exceeded"), "{text}");
    // The 504 must arrive promptly: the abandoned pass stops at its first
    // poll after the deadline, far within the acceptance envelope.
    assert!(elapsed < Duration::from_secs(2), "504 took {elapsed:?}");
    assert!(metric_or_zero(addr, "webreason_server_query_deadline_exceeded_total") >= 1);

    // The identical query without a deadline is unaffected by the
    // abandoned pass: full answer, no residue.
    let (status, text) = post(addr, "/query", THING_QUERY);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("http://ex/i0x0"), "{text}");
    drop(server.shutdown());
}

#[test]
fn oversized_deadline_header_is_clamped_and_zero_disables() {
    let _guard = serial();
    let server = boot_with(
        "clamp",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 1,
            default_deadline_ms: Some(30_000),
            max_deadline_ms: 60_000,
            ..Default::default()
        },
        ReasoningConfig::Reformulation,
    );
    let addr = server.local_addr();
    let (status, _) = post(
        addr,
        "/update",
        "insert <http://ex/s> <http://ex/p> \"v\" .",
    );
    assert_eq!(status, 200);
    // A clamped huge deadline and an explicit 0 (= uncapped) both serve.
    for header in [
        &[("X-Webreason-Deadline-Ms", "999999999")][..],
        &[("X-Webreason-Deadline-Ms", "0")][..],
    ] {
        let (status, text) = post_with_headers(
            addr,
            "/query",
            "SELECT ?x WHERE { <http://ex/s> <http://ex/p> ?x }",
            header,
        );
        assert_eq!(status, 200, "{text}");
    }
    drop(server.shutdown());
}

#[test]
fn conn_limit_refusal_carries_retry_after() {
    let _guard = serial();
    let server = boot_with(
        "connlimit",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 1,
            max_conns: 1,
            retry_after_secs: 2,
            ..Default::default()
        },
        ReasoningConfig::Reformulation,
    );
    let addr = server.local_addr();
    // Hold the only slot open with a partial request.
    let mut holder = TcpStream::connect(addr).expect("holder connects");
    holder.write_all(b"GET /he").expect("partial writes");
    std::thread::sleep(Duration::from_millis(300));

    // The refusal is written at accept time, before any request bytes
    // are read — so connect and read without sending anything.
    let mut refused = TcpStream::connect(addr).expect("second conn connects");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let mut text = String::new();
    refused.read_to_string(&mut text).expect("refusal reads");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("Retry-After: 2"), "{text}");
    assert!(text.contains("\"retry_after_ms\":2000"), "{text}");
    assert!(text.contains("\"error\":\"overloaded\""), "{text}");
    drop(holder);
    drop(server.shutdown());
}

#[test]
fn error_bodies_are_uniform_across_classes() {
    let _guard = serial();
    let server = boot_with(
        "uniform",
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 1,
            ..Default::default()
        },
        ReasoningConfig::Reformulation,
    );
    let addr = server.local_addr();
    // 404, 405 and 400 all carry the same JSON shape with explicit null
    // retry/degraded fields.
    let (status, text) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert!(text.contains("\"retry_after_ms\":null"), "{text}");
    assert!(text.contains("\"degraded\":null"), "{text}");
    let (status, text) = post(addr, "/update", "frobnicate <a> <b> <c> .");
    assert_eq!(status, 400);
    assert!(text.contains("\"retry_after_ms\":null"), "{text}");
    assert!(text.contains("\"degraded\":null"), "{text}");
    drop(server.shutdown());
}

#[cfg(feature = "failpoints")]
mod degraded {
    use super::*;
    use webreason_failpoints::configure;

    fn wait_ready(addr: SocketAddr, deadline: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if get(addr, "/ready").0 == 200 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }

    #[test]
    fn enospc_enters_read_only_degraded_mode_and_auto_recovers() {
        let _guard = serial();
        configure("");
        let server = boot_with(
            "enospc",
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: 2,
                ..Default::default()
            },
            ReasoningConfig::Reformulation,
        );
        let addr = server.local_addr();
        let (status, _) = post(
            addr,
            "/update",
            "insert <http://ex/s> <http://ex/p> \"v\" .",
        );
        assert_eq!(status, 200);
        let entered_before = metric_or_zero(addr, "webreason_server_degraded_entered_total");
        let exited_before = metric_or_zero(addr, "webreason_server_degraded_exited_total");

        // The disk "fills": the next journal append fails with ENOSPC.
        configure("store.journal.append=err(ENOSPC)");
        let (status, text) = post(
            addr,
            "/update",
            "insert <http://ex/s2> <http://ex/p> \"w\" .",
        );
        assert_eq!(
            status, 500,
            "the write that hit the disk fails plainly: {text}"
        );
        assert!(text.contains("apply_failed"), "{text}");

        // Degraded: readiness fails with the reason, updates 503 with the
        // machine-readable reason + Retry-After, reads and liveness flow.
        let (status, text) = get(addr, "/ready");
        assert_eq!(status, 503, "{text}");
        assert!(text.contains("journal_enospc"), "{text}");
        let (status, text) = post(
            addr,
            "/update",
            "insert <http://ex/s3> <http://ex/p> \"x\" .",
        );
        assert_eq!(status, 503, "{text}");
        assert!(text.contains("\"degraded\":\"journal_enospc\""), "{text}");
        assert!(text.contains("Retry-After:"), "{text}");
        let (status, text) = post(
            addr,
            "/query",
            "SELECT ?x WHERE { <http://ex/s> <http://ex/p> ?x }",
        );
        assert_eq!(status, 200, "reads must keep serving: {text}");
        assert!(text.contains("\\\"v\\\""), "{text}");
        assert_eq!(get(addr, "/health").0, 200, "liveness is not readiness");
        assert_eq!(metric_or_zero(addr, "webreason_server_degraded"), 1);

        // The disk "heals": the supervisor's probe append succeeds and
        // the server exits degraded mode on its own.
        configure("");
        assert!(wait_ready(addr, Duration::from_secs(10)), "never recovered");
        let (status, text) = post(
            addr,
            "/update",
            "insert <http://ex/s4> <http://ex/p> \"y\" .",
        );
        assert_eq!(status, 200, "writes resume after recovery: {text}");
        assert_eq!(metric_or_zero(addr, "webreason_server_degraded"), 0);
        assert_eq!(
            metric_or_zero(addr, "webreason_server_degraded_entered_total"),
            entered_before + 1,
            "exactly one degraded entry"
        );
        assert_eq!(
            metric_or_zero(addr, "webreason_server_degraded_exited_total"),
            exited_before + 1,
            "exactly one degraded exit"
        );

        // The 500'd and 503'd writes were never applied; the acked ones
        // all were.
        let (status, text) = post(addr, "/query", "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }");
        assert_eq!(status, 200);
        assert!(!text.contains("ex/s2"), "failed write leaked: {text}");
        assert!(
            !text.contains("ex/s3"),
            "degraded-refused write leaked: {text}"
        );
        assert!(
            text.contains("ex/s4"),
            "post-recovery write missing: {text}"
        );
        drop(server.shutdown());
    }

    /// The degraded counters on `/metrics` are the scraped server's own:
    /// with two servers in one process, degrading one leaves the other's
    /// counters at 0.
    #[test]
    fn degraded_counters_count_only_their_own_server() {
        let _guard = serial();
        configure("");
        let config = || ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..Default::default()
        };
        let a = boot_with("counters-a", config(), ReasoningConfig::Reformulation);
        let b = boot_with("counters-b", config(), ReasoningConfig::Reformulation);
        let (a_addr, b_addr) = (a.local_addr(), b.local_addr());

        // Only A writes while the disk is "full".
        configure("store.journal.append=err(ENOSPC)");
        let (status, text) = post(
            a_addr,
            "/update",
            "insert <http://ex/s> <http://ex/p> \"v\" .",
        );
        configure("");
        assert_eq!(status, 500, "{text}");
        assert!(
            wait_ready(a_addr, Duration::from_secs(10)),
            "A never recovered"
        );

        let read =
            |addr, name| metric_or_zero(addr, &format!("webreason_server_degraded_{name}_total"));
        assert_eq!((read(a_addr, "entered"), read(a_addr, "exited")), (1, 1));
        assert_eq!((read(b_addr, "entered"), read(b_addr, "exited")), (0, 0));
        drop(a.shutdown());
        drop(b.shutdown());
    }

    /// One ENOSPC window under concurrent load: two writers and two
    /// readers run while `store.journal.append` fails. Reads never fail and
    /// keep flowing inside the window, the server degrades and heals
    /// exactly once, and the recovered journal holds exactly the acked
    /// writes: every 200'd subject, no 5xx'd one, and the live row count.
    #[test]
    fn enospc_window_under_concurrent_load_keeps_exactly_the_acked_writes() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        const C1_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/C1> }";
        let _guard = serial();
        configure("");
        let dir = tmpdir("chaos");
        let store = DurableStore::create(
            &dir,
            ReasoningConfig::Reformulation,
            NonZeroUsize::MIN,
            FsyncPolicy::Always,
        )
        .expect("store creates");
        let server = Server::start(
            store,
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: 4,
                ..Default::default()
            },
        )
        .expect("server boots");
        let addr = server.local_addr();
        let entered0 = metric_or_zero(addr, "webreason_server_degraded_entered_total");
        let exited0 = metric_or_zero(addr, "webreason_server_degraded_exited_total");

        let stop = Arc::new(AtomicBool::new(false));
        let reads_ok = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let reads_ok = Arc::clone(&reads_ok);
                std::thread::spawn(move || {
                    let mut errors = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        match post(addr, "/query", C1_QUERY) {
                            (200, _) => {
                                reads_ok.fetch_add(1, Ordering::Relaxed);
                            }
                            (status, text) => errors.push(format!("{status}: {text}")),
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    errors
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let (mut acked, mut refused) = (Vec::new(), Vec::new());
                    let mut n = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let subject = format!("<http://ex/w{w}-{n}>");
                        n += 1;
                        let body = format!(
                            "insert {subject} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                             <http://ex/C1> ."
                        );
                        match post(addr, "/update", &body).0 {
                            200 => acked.push(subject),
                            429 => {}
                            status if status >= 500 => refused.push(subject),
                            status => panic!("update answered {status}"),
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (acked, refused)
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(200));
        // The window stays open until a write has degraded the server and
        // a read has been served since.
        configure("store.journal.append=err(ENOSPC)");
        let opened = Instant::now();
        while metric_or_zero(addr, "webreason_server_degraded") == 0
            && opened.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let reads_at_degrade = reads_ok.load(Ordering::Relaxed);
        while reads_ok.load(Ordering::Relaxed) == reads_at_degrade
            && opened.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let reads_in_window = reads_ok.load(Ordering::Relaxed) - reads_at_degrade;
        configure("");
        let healed = wait_ready(addr, Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);

        assert!(healed, "never recovered");
        for r in readers {
            let errors = r.join().expect("reader joins");
            assert!(errors.is_empty(), "read errors: {errors:?}");
        }
        assert!(reads_in_window > 0, "no read was served inside the window");
        let (mut acked, mut refused) = (Vec::new(), Vec::new());
        for w in writers {
            let (a, r) = w.join().expect("writer joins");
            acked.extend(a);
            refused.extend(r);
        }
        assert!(!acked.is_empty(), "no write was acked");
        assert!(!refused.is_empty(), "the window refused no write");
        assert_eq!(
            metric_or_zero(addr, "webreason_server_degraded_entered_total"),
            entered0 + 1,
            "exactly one degraded entry"
        );
        assert_eq!(
            metric_or_zero(addr, "webreason_server_degraded_exited_total"),
            exited0 + 1,
            "exactly one degraded exit"
        );
        let (status, text) = post(addr, "/query", C1_QUERY);
        assert_eq!(status, 200, "{text}");
        let live_rows = text.matches("\"<http://ex/").count();
        drop(server.shutdown());

        let rec = webreason_core::Store::recover(&dir).expect("recovers");
        let export = rec.export_ntriples();
        let subjects: HashSet<&str> = export
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let lost: Vec<_> = acked
            .iter()
            .filter(|s| !subjects.contains(s.as_str()))
            .collect();
        assert!(lost.is_empty(), "acked writes lost: {lost:?}");
        let phantom: Vec<_> = refused
            .iter()
            .filter(|s| subjects.contains(s.as_str()))
            .collect();
        assert!(phantom.is_empty(), "refused writes recovered: {phantom:?}");
        let recovered_rows = rec
            .answer_sparql(C1_QUERY)
            .expect("recovered store answers")
            .len();
        assert_eq!(live_rows, recovered_rows, "live and recovered rows differ");
        assert_eq!(
            live_rows,
            acked.len(),
            "every acked write is live, nothing else"
        );
    }

    #[test]
    fn fsync_eio_degrades_with_its_own_reason() {
        let _guard = serial();
        configure("");
        let server = boot_fsync(
            "eio",
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: 1,
                ..Default::default()
            },
            ReasoningConfig::Reformulation,
            FsyncPolicy::Always,
        );
        let addr = server.local_addr();
        let (status, _) = post(
            addr,
            "/update",
            "insert <http://ex/a> <http://ex/p> \"1\" .",
        );
        assert_eq!(status, 200);

        configure("store.journal.fsync=err(EIO)");
        let (status, text) = post(
            addr,
            "/update",
            "insert <http://ex/b> <http://ex/p> \"2\" .",
        );
        assert_eq!(
            status, 500,
            "group-sync failure rejects the whole group: {text}"
        );
        let (status, text) = get(addr, "/ready");
        assert_eq!(status, 503, "{text}");
        assert!(text.contains("journal_eio"), "{text}");
        // Unsynced writes were not published: readers still see only `a`.
        let (status, text) = post(addr, "/query", "SELECT ?s WHERE { ?s <http://ex/p> ?o }");
        assert_eq!(status, 200);
        assert!(!text.contains("ex/b"), "unacked write visible: {text}");

        configure("");
        assert!(wait_ready(addr, Duration::from_secs(10)), "never recovered");
        let (status, text) = post(
            addr,
            "/update",
            "insert <http://ex/c> <http://ex/p> \"3\" .",
        );
        assert_eq!(status, 200, "{text}");
        drop(server.shutdown());
    }
}
