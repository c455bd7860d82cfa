//! `loadgen` — seeded mixed read/write load generator over real sockets.
//!
//! Boots the embedded HTTP server on a scratch journaled store and drives
//! it with N closed-loop clients on persistent keep-alive connections,
//! each flipping a seeded coin per request between a SPARQL read and an
//! update script of `--ops-per-update` ops. Reports throughput and
//! p50/p95/p99 latency and proves the group-commit claim with
//! observability counters: one fsync and one publish per drained group,
//! not per script.
//!
//! Results land in `bench_results/table_loadgen.json`.
//!
//! ```text
//! loadgen [--clients N] [--write-ratio F] [--duration-secs S]
//!         [--ops-per-update N] [--fsync always|never]
//!         [--threads N] [--queue N] [--seed N] [--strict] [--conn-sweep]
//!         [--subscribers N] [--subscribe-triples T] [--subscribe-updates U]
//! ```
//!
//! `--strict` exits non-zero when any response is neither 200 nor 429 —
//! the CI smoke gate.

use bench::{emit_json, render_table};
use durability::FsyncPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdfs::incremental::MaintenanceAlgorithm;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webreason_core::{DurableStore, ReasoningConfig};
use webreason_server::{Server, ServerConfig};

const QUERY: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";

#[derive(Debug, Clone)]
struct Args {
    clients: usize,
    write_ratio: f64,
    duration_secs: f64,
    ops_per_update: usize,
    fsync: FsyncPolicy,
    /// Store reasoning strategy. `reformulation` (default) isolates the
    /// commit protocol — it maintains nothing, and every microsecond of
    /// maintenance dilutes the fsync amortization being measured;
    /// `counting` adds incremental maintenance per op for an end-to-end
    /// mixed workload.
    reasoning: ReasoningConfig,
    threads: usize,
    queue: usize,
    seed: u64,
    strict: bool,
    /// Run the connection-scaling sweep (8 clients, then `--clients`)
    /// into `table_cserve.json` instead of the mixed workload.
    conn_sweep: bool,
    /// Run the chaos leg (disk-fault windows + slow-client stalls) into
    /// `table_chaos.json`. Needs `--features failpoints`.
    chaos: bool,
    chaos_windows: usize,
    chaos_window_ms: u64,
    /// Run the subscription leg (`--subscribers N`) into
    /// `table_subscribe.json`: N `POST /subscribe` cursors over a
    /// LUBM-style store, asserting zero lost deltas and measuring delta
    /// propagation vs full re-evaluation.
    subscribers: usize,
    subscribe_triples: usize,
    subscribe_updates: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--clients N] [--write-ratio F] [--duration-secs S]\n\
         \x20              [--ops-per-update N] [--fsync always|never]\n\
         \x20              [--reasoning reformulation|counting] [--threads N] [--queue N]\n\
         \x20              [--seed N] [--strict] [--conn-sweep]\n\
         \x20              [--chaos] [--chaos-windows N] [--chaos-window-ms MS]\n\
         \x20              [--subscribers N] [--subscribe-triples T] [--subscribe-updates U]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 8,
        write_ratio: 0.5,
        duration_secs: 3.0,
        ops_per_update: 4,
        fsync: FsyncPolicy::Always,
        reasoning: ReasoningConfig::Reformulation,
        threads: 0, // 0 = one worker per client
        queue: 256,
        seed: 42,
        strict: false,
        conn_sweep: false,
        chaos: false,
        chaos_windows: 2,
        chaos_window_ms: 2000,
        subscribers: 0,
        subscribe_triples: 100_000,
        subscribe_updates: 50,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--strict" {
            args.strict = true;
            continue;
        }
        if flag == "--conn-sweep" {
            args.conn_sweep = true;
            continue;
        }
        if flag == "--chaos" {
            args.chaos = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        let ok = match flag.as_str() {
            "--clients" => value.parse().map(|v| args.clients = v).is_ok(),
            "--write-ratio" => value
                .parse()
                .ok()
                .filter(|v| (0.0..=1.0).contains(v))
                .map(|v| args.write_ratio = v)
                .is_some(),
            "--duration-secs" => value
                .parse()
                .ok()
                .filter(|v| *v > 0.0)
                .map(|v| args.duration_secs = v)
                .is_some(),
            "--ops-per-update" => value
                .parse()
                .ok()
                .filter(|v| *v >= 1)
                .map(|v| args.ops_per_update = v)
                .is_some(),
            "--fsync" => FsyncPolicy::parse(value).map(|v| args.fsync = v).is_some(),
            "--reasoning" => match value.as_str() {
                "reformulation" => {
                    args.reasoning = ReasoningConfig::Reformulation;
                    true
                }
                "counting" => {
                    args.reasoning = ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting);
                    true
                }
                _ => false,
            },
            "--threads" => value.parse().map(|v| args.threads = v).is_ok(),
            "--queue" => value
                .parse()
                .ok()
                .filter(|v| *v >= 1)
                .map(|v| args.queue = v)
                .is_some(),
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--chaos-windows" => value
                .parse()
                .ok()
                .filter(|v| *v >= 1)
                .map(|v| args.chaos_windows = v)
                .is_some(),
            "--chaos-window-ms" => value
                .parse()
                .ok()
                .filter(|v| *v >= 100)
                .map(|v| args.chaos_window_ms = v)
                .is_some(),
            "--subscribers" => value
                .parse()
                .ok()
                .filter(|v| *v >= 1)
                .map(|v| args.subscribers = v)
                .is_some(),
            "--subscribe-triples" => value
                .parse()
                .ok()
                .filter(|v| *v >= 1000)
                .map(|v| args.subscribe_triples = v)
                .is_some(),
            "--subscribe-updates" => value
                .parse()
                .ok()
                .filter(|v| *v >= 1)
                .map(|v| args.subscribe_updates = v)
                .is_some(),
            _ => false,
        };
        if !ok {
            eprintln!("loadgen: bad flag {flag} {value}");
            usage();
        }
    }
    if args.clients == 0 {
        usage();
    }
    args
}

/// One request over a persistent connection: write, then read exactly one
/// `Content-Length`-framed response. Returns the status code.
///
/// Chunked reads are safe on this closed loop: the server sends exactly
/// one response per request and the client only writes the next request
/// after consuming the current response, so there is never a next
/// response to over-read into.
fn roundtrip(stream: &mut TcpStream, raw: &[u8], buf: &mut Vec<u8>) -> std::io::Result<u16> {
    stream.write_all(raw)?;
    buf.clear();
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 16 * 1024 {
            return Err(std::io::Error::other("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::other("peer closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let text = String::from_utf8_lossy(&buf[..head_len]);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("no status line"))?;
    let len: usize = text
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_owned)
        })
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other("no content-length"))?;
    while buf.len() < head_len + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::other("peer closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(status)
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[derive(Default)]
struct ClientTally {
    reads_ok: u64,
    writes_ok: u64,
    rejected_429: u64,
    errors: u64,
    read_us: Vec<u64>,
    write_us: Vec<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[derive(Serialize)]
struct ModeRow {
    mode: &'static str,
    clients: usize,
    write_ratio: f64,
    ops_per_update: usize,
    fsync: &'static str,
    elapsed_secs: f64,
    reads: u64,
    reads_per_s: f64,
    writes_applied: u64,
    writes_per_s: f64,
    ops_applied: u64,
    write_ops_per_s: f64,
    rejected_429: u64,
    errors: u64,
    read_p50_us: u64,
    read_p95_us: u64,
    read_p99_us: u64,
    write_p50_us: u64,
    write_p95_us: u64,
    write_p99_us: u64,
    // Counter proof of the commit protocol, deltas over this run.
    fsyncs: u64,
    groups: u64,
    publishes: u64,
    mean_group_size: f64,
    /// `webreason_server_open_connections` scraped mid-run (sweep legs).
    open_connections_mid: u64,
    reactor_accepted: u64,
    reactor_reaped: u64,
    fsyncs_per_write: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    rows: Vec<ModeRow>,
}

/// Snapshot of the group-size histogram (count, sum) — the registry is
/// process-global, so per-run numbers are deltas between snapshots.
fn group_size_totals() -> (u64, u64) {
    obs::global()
        .snapshot()
        .histogram("server.update.group_size")
        .map_or((0, 0), |h| (h.count, h.sum))
}

/// Connects with retries: a 1000-client storm can transiently overflow
/// the accept backlog.
fn connect_with_retry(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                let _ = s.set_nodelay(true);
                return s;
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("connect failed after retries: {last:?}");
}

/// Scrapes `/metrics` and returns the open-connections gauge.
fn scrape_open_connections(addr: SocketAddr) -> u64 {
    let mut stream = connect_with_retry(addr);
    let raw = b"GET /metrics HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n";
    let mut buf = Vec::new();
    if stream.write_all(raw).is_err() || stream.read_to_end(&mut buf).is_err() {
        return 0;
    }
    let text = String::from_utf8_lossy(&buf);
    text.lines()
        .find_map(|l| l.strip_prefix("webreason_server_open_connections "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// One workload leg: client count and worker count pinned.
#[derive(Clone, Copy)]
struct LegSpec {
    label: &'static str,
    clients: usize,
    threads: usize,
    scrape_mid: bool,
}

fn run_leg(args: &Args, spec: LegSpec) -> ModeRow {
    let mode = spec.label;
    let ops_per_update = args.ops_per_update;
    let dir = std::env::temp_dir().join(format!("webreason-loadgen-{mode}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableStore::create(&dir, args.reasoning, NonZeroUsize::MIN, args.fsync)
        .expect("store creates");
    store
        .load_turtle(
            "@prefix ex: <http://ex/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:Cat rdfs:subClassOf ex:Mammal .\n\
             ex:Tom a ex:Cat .\n",
        )
        .expect("seed loads");
    let server = Server::start(
        store,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: spec.threads,
            update_queue: args.queue,
            checkpoint_every: 0, // keep the fsync ledger to commits only
            max_conns: 4096.max(spec.clients + 64),
            ..Default::default()
        },
    )
    .expect("server boots");
    let addr: SocketAddr = server.local_addr();

    let reg = obs::global();
    let fsyncs0 = reg.counter_value("durability.journal.fsyncs");
    let groups0 = reg.counter_value("server.update.groups");
    let publishes0 = reg.counter_value("server.update.publishes");
    let (gs_count0, gs_sum0) = group_size_totals();
    let accepted0 = reg.counter_value("server.reactor.accepted");
    let reaped0 = reg.counter_value("server.reactor.reaped");

    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Duration::from_secs_f64(args.duration_secs);
    let started = Instant::now();
    let handles: Vec<_> = (0..spec.clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let args = args.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(c as u64));
                let mut stream = connect_with_retry(addr);
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout sets");
                let _ = stream.set_nodelay(true);
                let mut tally = ClientTally::default();
                let mut head = Vec::with_capacity(256);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let write = rng.gen_bool(args.write_ratio);
                    let raw = if write {
                        let mut body = String::new();
                        for j in 0..ops_per_update {
                            body.push_str(&format!(
                                "insert <http://ex/w{c}-{n}-{j}> \
                                 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                                 <http://ex/Cat> .\n"
                            ));
                        }
                        post("/update", &body)
                    } else {
                        post("/query", QUERY)
                    };
                    n += 1;
                    let t = Instant::now();
                    match roundtrip(&mut stream, &raw, &mut head) {
                        Ok(200) => {
                            let us = t.elapsed().as_micros() as u64;
                            if write {
                                tally.writes_ok += 1;
                                tally.write_us.push(us);
                            } else {
                                tally.reads_ok += 1;
                                tally.read_us.push(us);
                            }
                        }
                        Ok(429) => {
                            tally.rejected_429 += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Ok(_) => tally.errors += 1,
                        Err(_) => {
                            tally.errors += 1;
                            break; // connection is gone; stop this client
                        }
                    }
                }
                tally
            })
        })
        .collect();
    // Mid-run gauge evidence: with every client connected and working,
    // the server should report them all as open.
    let open_connections_mid = if spec.scrape_mid {
        std::thread::sleep(deadline / 2);
        let open = scrape_open_connections(addr);
        std::thread::sleep(deadline / 2);
        open
    } else {
        std::thread::sleep(deadline);
        0
    };
    stop.store(true, Ordering::Relaxed);
    let mut total = ClientTally::default();
    for h in handles {
        let t = h.join().expect("client thread");
        total.reads_ok += t.reads_ok;
        total.writes_ok += t.writes_ok;
        total.rejected_429 += t.rejected_429;
        total.errors += t.errors;
        total.read_us.extend(t.read_us);
        total.write_us.extend(t.write_us);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let fsyncs = reg.counter_value("durability.journal.fsyncs") - fsyncs0;
    let groups = reg.counter_value("server.update.groups") - groups0;
    let publishes = reg.counter_value("server.update.publishes") - publishes0;
    let (gs_count, gs_sum) = group_size_totals();
    let mean_group_size = if gs_count > gs_count0 {
        (gs_sum - gs_sum0) as f64 / (gs_count - gs_count0) as f64
    } else {
        0.0
    };

    drop(server.shutdown());
    let _ = std::fs::remove_dir_all(&dir);

    total.read_us.sort_unstable();
    total.write_us.sort_unstable();
    let ops_applied = total.writes_ok * ops_per_update as u64;
    ModeRow {
        mode,
        clients: spec.clients,
        write_ratio: args.write_ratio,
        ops_per_update,
        fsync: match args.fsync {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        },
        elapsed_secs: elapsed,
        reads: total.reads_ok,
        reads_per_s: total.reads_ok as f64 / elapsed,
        writes_applied: total.writes_ok,
        writes_per_s: total.writes_ok as f64 / elapsed,
        ops_applied,
        write_ops_per_s: ops_applied as f64 / elapsed,
        rejected_429: total.rejected_429,
        errors: total.errors,
        read_p50_us: percentile(&total.read_us, 0.50),
        read_p95_us: percentile(&total.read_us, 0.95),
        read_p99_us: percentile(&total.read_us, 0.99),
        write_p50_us: percentile(&total.write_us, 0.50),
        write_p95_us: percentile(&total.write_us, 0.95),
        write_p99_us: percentile(&total.write_us, 0.99),
        fsyncs,
        groups,
        publishes,
        mean_group_size,
        open_connections_mid,
        reactor_accepted: reg.counter_value("server.reactor.accepted") - accepted0,
        reactor_reaped: reg.counter_value("server.reactor.reaped") - reaped0,
        fsyncs_per_write: if total.writes_ok > 0 {
            fsyncs as f64 / total.writes_ok as f64
        } else {
            0.0
        },
    }
}

/// The connection-scaling sweep: 8 keep-alive clients, then `--clients`
/// of them on the same worker pool, with the open-connection gauge
/// scraped mid-run on the big leg.
fn run_conn_sweep(args: &Args) -> ! {
    let big = args.clients.max(64);
    let workers = if args.threads == 0 { 8 } else { args.threads };
    println!(
        "== loadgen conn sweep: {big} keep-alive clients on the big leg, write ratio {:.2}, \
         {:.1}s per leg, seed {} ==",
        args.write_ratio, args.duration_secs, args.seed
    );
    let legs = [
        LegSpec {
            label: "clients-8",
            clients: 8,
            threads: workers,
            scrape_mid: false,
        },
        LegSpec {
            label: "clients-high",
            clients: big,
            threads: workers,
            scrape_mid: true,
        },
    ];
    let rows: Vec<ModeRow> = legs.iter().map(|&l| run_leg(args, l)).collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_owned(),
                r.clients.to_string(),
                format!("{:.0}", r.reads_per_s),
                format!("{:.0}", r.writes_per_s),
                r.read_p50_us.to_string(),
                r.read_p95_us.to_string(),
                r.read_p99_us.to_string(),
                r.open_connections_mid.to_string(),
                r.reactor_accepted.to_string(),
                r.reactor_reaped.to_string(),
                r.rejected_429.to_string(),
                r.errors.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "leg",
                "clients",
                "reads/s",
                "writes/s",
                "r p50 (µs)",
                "r p95 (µs)",
                "r p99 (µs)",
                "open@mid",
                "accepted",
                "reaped",
                "429s",
                "errors",
            ],
            &table
        )
    );

    let errors: u64 = rows.iter().map(|r| r.errors).sum();
    let report = Report {
        seed: args.seed,
        rows,
    };
    let ok = emit_json("table_cserve", &report);
    if args.strict && errors > 0 {
        eprintln!("loadgen: --strict and {errors} non-200/429 responses");
        std::process::exit(1);
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let args = parse_args();
    if args.subscribers > 0 {
        subscribe::run(&args);
    }
    if args.chaos {
        chaos::run(&args);
    }
    if args.conn_sweep {
        run_conn_sweep(&args);
    }
    println!(
        "== loadgen: {} clients, write ratio {:.2}, {:.1}s, fsync {:?}, seed {} ==",
        args.clients, args.write_ratio, args.duration_secs, args.fsync, args.seed
    );

    let rows = vec![run_leg(
        &args,
        LegSpec {
            label: "mixed",
            clients: args.clients,
            threads: if args.threads == 0 {
                args.clients
            } else {
                args.threads
            },
            scrape_mid: false,
        },
    )];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_owned(),
                r.ops_per_update.to_string(),
                format!("{:.0}", r.write_ops_per_s),
                format!("{:.0}", r.writes_per_s),
                format!("{:.0}", r.reads_per_s),
                r.write_p50_us.to_string(),
                r.write_p95_us.to_string(),
                r.write_p99_us.to_string(),
                r.fsyncs.to_string(),
                r.groups.to_string(),
                format!("{:.1}", r.mean_group_size),
                r.rejected_429.to_string(),
                r.errors.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "ops/req",
                "write ops/s",
                "scripts/s",
                "reads/s",
                "w p50 (µs)",
                "w p95 (µs)",
                "w p99 (µs)",
                "fsyncs",
                "groups",
                "mean group",
                "429s",
                "errors",
            ],
            &table
        )
    );

    let errors: u64 = rows.iter().map(|r| r.errors).sum();
    let report = Report {
        seed: args.seed,
        rows,
    };
    let ok = emit_json("table_loadgen", &report);
    if args.strict && errors > 0 {
        eprintln!("loadgen: --strict and {errors} non-200/429 responses");
        std::process::exit(1);
    }
    if !ok {
        std::process::exit(1);
    }
}

/// The subscription leg (`--subscribers N`): N `POST /subscribe` cursors
/// over a LUBM-style store (universities, professors, students —
/// `--subscribe-triples` base triples under Counting saturation), driven
/// by `--subscribe-updates` single-triple updates that each change the
/// subscribed view by exactly one row. After every update each cursor
/// polls `GET /subscribe/{id}?from=E` from its last acknowledged epoch.
///
/// Asserted (and `--strict`-gated): **zero lost deltas** — every cursor
/// receives the batch of every update's epoch and its accumulated state
/// converges to the final from-scratch answer.
///
/// Measured: per-update **delta maintenance** (the publish span) and
/// **propagation** (update acked → batch in a polling client's hand) vs
/// **full re-evaluation** (`POST /query` of the same SPARQL) p50/p95 —
/// the O(|Δ|)-vs-O(|G|) claim the incremental views exist for. Results
/// land in `bench_results/table_subscribe.json`.
mod subscribe {
    use super::*;
    use std::collections::HashMap;

    const PERSON_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/Person> }";

    /// LUBM-flavoured fixture: a Person class tree over graduate students
    /// and full professors plus advisor edges, sized to ~`triples`.
    fn fixture_ttl(triples: usize) -> String {
        let mut ttl = String::from(
            "@prefix ex: <http://ex/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:FullProfessor rdfs:subClassOf ex:Professor .\n\
             ex:Professor rdfs:subClassOf ex:Person .\n\
             ex:GraduateStudent rdfs:subClassOf ex:Student .\n\
             ex:Student rdfs:subClassOf ex:Person .\n",
        );
        let profs = 1000.min(triples / 10);
        for p in 0..profs {
            ttl.push_str(&format!("ex:prof{p} a ex:FullProfessor .\n"));
        }
        let students = (triples.saturating_sub(profs + 4)) / 2;
        for i in 0..students {
            ttl.push_str(&format!(
                "ex:s{i} a ex:GraduateStudent .\nex:s{i} ex:advisor ex:prof{} .\n",
                i % profs.max(1)
            ));
        }
        ttl
    }

    /// `"key":<digits>` extractor — enough for our own wire format.
    fn json_u64(text: &str, key: &str) -> Option<u64> {
        let pat = format!("\"{key}\":");
        let at = text.find(&pat)? + pat.len();
        let digits: String = text[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }

    /// Applies one serialized batch's events to `state`. Rows here are
    /// single IRIs (`["<http://ex/s1>"]`) — no JSON string escapes to
    /// handle.
    fn apply_batch(state: &mut HashMap<String, i64>, batch: &str) {
        if batch.contains("\"reset\":true") {
            state.clear();
        }
        let mut rest = batch;
        while let Some(at) = rest.find("{\"row\":[\"") {
            let tail = &rest[at + 9..];
            let Some(end) = tail.find("\"]") else { break };
            let row = tail[..end].to_owned();
            let after = &tail[end..];
            let delta: i64 = after
                .find("\"delta\":")
                .and_then(|d| {
                    let s: String = after[d + 8..]
                        .chars()
                        .take_while(|c| c.is_ascii_digit() || *c == '-')
                        .collect();
                    s.parse().ok()
                })
                .unwrap_or(0);
            let m = state.entry(row.clone()).or_insert(0);
            *m += delta;
            if *m == 0 {
                state.remove(&row);
            }
            rest = &rest[at + 9 + end..];
        }
    }

    /// One subscriber: its id, a keep-alive connection for catch-up
    /// polls, the last acknowledged epoch and the accumulated state.
    struct Cursor {
        id: u64,
        conn: TcpStream,
        acked: u64,
        state: HashMap<String, i64>,
        /// Non-null `terminal` seen on a catch-up: the stream ended.
        terminal: Option<String>,
    }

    impl Cursor {
        /// `POST /subscribe`: reads the whole chunked window (header,
        /// initial reset batch, `next` link) and opens the poll
        /// connection.
        fn register(addr: SocketAddr) -> Cursor {
            let mut stream = connect_with_retry(addr);
            let raw = format!(
                "POST /subscribe HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{PERSON_QUERY}",
                PERSON_QUERY.len()
            );
            stream.write_all(raw.as_bytes()).expect("subscribe sends");
            let mut resp = Vec::new();
            stream.read_to_end(&mut resp).expect("window reads");
            let text = String::from_utf8_lossy(&resp);
            assert!(
                text.starts_with("HTTP/1.1 200"),
                "subscribe refused: {text}"
            );
            let mut body = &text[text.find("\r\n\r\n").expect("head ends") + 4..];
            let mut frames = Vec::new();
            while let Some((size, rest)) = body.split_once("\r\n") {
                let size = usize::from_str_radix(size.trim(), 16).expect("chunk size");
                if size == 0 {
                    break;
                }
                frames.push(&rest[..size]);
                body = &rest[size + 2..];
            }
            let [header, initial, _next] = frames[..] else {
                panic!("window is header, snapshot, next link: {frames:?}")
            };
            let mut state = HashMap::new();
            apply_batch(&mut state, initial);
            Cursor {
                id: json_u64(header, "id").expect("subscription id"),
                conn: connect_with_retry(addr),
                acked: json_u64(header, "epoch").expect("registration epoch"),
                state,
                terminal: None,
            }
        }

        /// One catch-up from the acknowledged epoch: applies every batch
        /// and returns their epochs.
        fn poll(&mut self, buf: &mut Vec<u8>) -> Vec<u64> {
            let raw = format!(
                "GET /subscribe/{}?from={} HTTP/1.1\r\nHost: loadgen\r\n\r\n",
                self.id, self.acked
            );
            let status = roundtrip(&mut self.conn, raw.as_bytes(), buf).expect("catch-up");
            assert_eq!(status, 200, "catch-up refused");
            let text = String::from_utf8_lossy(buf).to_string();
            let body = &text[text.find("\r\n\r\n").map_or(0, |p| p + 4)..];
            let (batches, terminal) = body
                .rsplit_once("],\"terminal\":")
                .expect("catch-up reply shape");
            if !terminal.starts_with("null") {
                self.terminal = Some(terminal.trim_end_matches('}').to_owned());
            }
            let mut epochs = Vec::new();
            for batch in batches.split("{\"epoch\":").skip(1) {
                let batch = format!("{{\"epoch\":{batch}");
                let epoch = json_u64(&batch, "epoch").expect("batch epoch");
                apply_batch(&mut self.state, &batch);
                self.acked = self.acked.max(epoch);
                epochs.push(epoch);
            }
            epochs
        }
    }

    #[derive(Serialize)]
    struct SubscribeReport {
        seed: u64,
        subscribers: usize,
        base_triples: usize,
        view_rows: usize,
        updates: usize,
        /// Per-update cost of the `server.subscribe.publish` span (µs):
        /// the O(|Δ|) dataflow that refreshes every registered view and
        /// appends its batch to the epoch log. This is what each
        /// subscriber would otherwise pay as a full re-evaluation.
        delta_p50_us: u64,
        delta_p95_us: u64,
        /// `POST /query` of the same SPARQL at full size (µs).
        full_p50_us: u64,
        full_p95_us: u64,
        /// full_p50 / delta_p50 — the re-evaluation cost the delta
        /// dataflow avoids on every update.
        speedup_p50: f64,
        /// Update acked → batch in subscriber 0's hand (µs): one catch-up
        /// round trip, against a client that re-queries (`full_*`).
        propagate_p50_us: u64,
        propagate_p95_us: u64,
        lost_deltas: u64,
        diverged_subscribers: u64,
        update_p50_us: u64,
        update_p95_us: u64,
    }

    pub fn run(args: &Args) -> ! {
        let n_subs = args.subscribers;
        let updates = args.subscribe_updates;
        println!(
            "== loadgen subscribe: {n_subs} polling cursors over ~{} LUBM-style triples, \
             {updates} updates, seed {} ==",
            args.subscribe_triples, args.seed
        );

        let dir =
            std::env::temp_dir().join(format!("webreason-loadgen-sub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DurableStore::create(
            &dir,
            ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
            NonZeroUsize::MIN,
            args.fsync,
        )
        .expect("store creates");
        let (base_triples, _) = store
            .load_turtle(&fixture_ttl(args.subscribe_triples))
            .expect("fixture loads");
        let server = Server::start(
            store,
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                update_queue: args.queue,
                checkpoint_every: 0,
                max_subscriptions: n_subs + 1,
                ..Default::default()
            },
        )
        .expect("server boots");
        let addr: SocketAddr = server.local_addr();
        let mut cursors: Vec<Cursor> = (0..n_subs).map(|_| Cursor::register(addr)).collect();

        // The measuring writer: each update flips exactly one Person row,
        // then every cursor catches up (subscriber 0 times it) and a
        // from-scratch POST /query of the same view is timed.
        let mut writer = connect_with_retry(addr);
        let mut prober = connect_with_retry(addr);
        let mut head = Vec::with_capacity(64 * 1024);
        let reg = obs::global();
        let mut delta_us: Vec<u64> = Vec::new();
        let mut propagate_us: Vec<u64> = Vec::new();
        let mut full_us: Vec<u64> = Vec::new();
        let mut update_us: Vec<u64> = Vec::new();
        let mut lost_deltas = 0u64;
        let mut span_total = reg.snapshot().span_total_us("server.subscribe.publish");
        for u in 0..updates {
            let (op, subj) = if u % 2 == 0 {
                ("insert", format!("http://ex/new{u}"))
            } else {
                ("delete", format!("http://ex/new{}", u - 1))
            };
            let body = format!(
                "{op} <{subj}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://ex/GraduateStudent> .\n"
            );
            let t0 = Instant::now();
            let status =
                roundtrip(&mut writer, &post("/update", &body), &mut head).expect("update lands");
            assert_eq!(status, 200, "update {u} refused");
            let acked = Instant::now();
            update_us.push(t0.elapsed().as_micros() as u64);
            let epoch = json_u64(&String::from_utf8_lossy(&head), "epoch").expect("update epoch");

            // The writer publishes before it acks, so one catch-up per
            // cursor must already carry this epoch's batch.
            for (i, cursor) in cursors.iter_mut().enumerate() {
                let epochs = cursor.poll(&mut head);
                if i == 0 {
                    propagate_us.push(acked.elapsed().as_micros() as u64);
                }
                if !epochs.contains(&epoch) {
                    lost_deltas += 1;
                }
            }

            // Updates are serial, so the span's growth over this update
            // is exactly this publication's view-maintenance cost.
            let total = reg.snapshot().span_total_us("server.subscribe.publish");
            delta_us.push(total - span_total);
            span_total = total;

            let t1 = Instant::now();
            let status = roundtrip(&mut prober, &post("/query", PERSON_QUERY), &mut head)
                .expect("full re-evaluation");
            assert_eq!(status, 200);
            full_us.push(t1.elapsed().as_micros() as u64);
        }

        // From-scratch final answer → convergence check per subscriber.
        let status =
            roundtrip(&mut prober, &post("/query", PERSON_QUERY), &mut head).expect("final answer");
        assert_eq!(status, 200);
        let final_text = String::from_utf8_lossy(&head).to_string();
        let body = &final_text[final_text.find("\r\n\r\n").map(|p| p + 4).unwrap_or(0)..];
        let mut oracle: Vec<&str> = body
            .split('"')
            .filter(|t| t.starts_with("<http://ex/"))
            .collect();
        oracle.sort_unstable();
        oracle.dedup();

        let mut diverged = 0u64;
        for (i, cursor) in cursors.iter().enumerate() {
            if let Some(t) = &cursor.terminal {
                eprintln!("subscriber {i} terminated early: {t}");
                diverged += 1;
                continue;
            }
            let mut got: Vec<&str> = cursor
                .state
                .iter()
                .filter(|(_, &m)| m > 0)
                .map(|(k, _)| k.as_str())
                .collect();
            got.sort_unstable();
            if got != oracle {
                eprintln!(
                    "subscriber {i} diverged: {} rows vs oracle {}",
                    got.len(),
                    oracle.len()
                );
                diverged += 1;
            }
        }
        drop(cursors);
        drop(server.shutdown());
        let _ = std::fs::remove_dir_all(&dir);

        delta_us.sort_unstable();
        propagate_us.sort_unstable();
        full_us.sort_unstable();
        update_us.sort_unstable();
        let report = SubscribeReport {
            seed: args.seed,
            subscribers: n_subs,
            base_triples,
            view_rows: oracle.len(),
            updates,
            delta_p50_us: percentile(&delta_us, 0.50),
            delta_p95_us: percentile(&delta_us, 0.95),
            full_p50_us: percentile(&full_us, 0.50),
            full_p95_us: percentile(&full_us, 0.95),
            speedup_p50: if percentile(&delta_us, 0.50) > 0 {
                percentile(&full_us, 0.50) as f64 / percentile(&delta_us, 0.50) as f64
            } else {
                f64::INFINITY
            },
            propagate_p50_us: percentile(&propagate_us, 0.50),
            propagate_p95_us: percentile(&propagate_us, 0.95),
            lost_deltas,
            diverged_subscribers: diverged,
            update_p50_us: percentile(&update_us, 0.50),
            update_p95_us: percentile(&update_us, 0.95),
        };
        println!(
            "{}",
            render_table(
                &[
                    "subs",
                    "triples",
                    "view rows",
                    "updates",
                    "Δ p50 (µs)",
                    "Δ p95 (µs)",
                    "full p50 (µs)",
                    "full p95 (µs)",
                    "speedup",
                    "lost",
                    "diverged",
                ],
                &[vec![
                    report.subscribers.to_string(),
                    report.base_triples.to_string(),
                    report.view_rows.to_string(),
                    report.updates.to_string(),
                    report.delta_p50_us.to_string(),
                    report.delta_p95_us.to_string(),
                    report.full_p50_us.to_string(),
                    report.full_p95_us.to_string(),
                    format!("{:.1}x", report.speedup_p50),
                    report.lost_deltas.to_string(),
                    report.diverged_subscribers.to_string(),
                ]]
            )
        );

        let ok = emit_json("table_subscribe", &report);
        if args.strict && (report.lost_deltas > 0 || report.diverged_subscribers > 0) {
            eprintln!(
                "loadgen: --strict and {} lost deltas / {} diverged subscribers",
                report.lost_deltas, report.diverged_subscribers
            );
            std::process::exit(1);
        }
        std::process::exit(if ok { 0 } else { 1 });
    }
}

/// The chaos leg (`--chaos`): mixed load with injected disk-fault windows
/// and a slow-client stall, asserting the graceful-degradation SLOs:
///
/// * **reads never fail** — not one read error, in or out of a fault
///   window, and reads keep flowing *during* every window;
/// * **zero lost acked writes** — every 200'd update is present in the
///   recovered store; every 5xx'd update is absent;
/// * **degraded entry/exit counters match the windows** — the server
///   enters read-only mode exactly once per window and auto-recovers
///   exactly once per window;
/// * **deadlines hold under load** — a deadline-capped wide union
///   returns 504 within deadline + 50 ms while concurrent queries are
///   unaffected (asserted only when the uncapped run is slow enough for
///   the cap to bite);
/// * **slow clients are reaped** — a stalled half-request is closed by
///   the idle reaper instead of pinning a connection.
///
/// Results land in `bench_results/table_chaos.json`; `--strict` exits
/// non-zero when any SLO fails.
mod chaos {
    #[cfg(not(feature = "failpoints"))]
    pub fn run(_args: &super::Args) -> ! {
        eprintln!(
            "loadgen: --chaos needs the fault-injection sites compiled in;\n\
             rerun with: cargo run -p bench --bin loadgen --features failpoints -- --chaos"
        );
        std::process::exit(2);
    }

    #[cfg(feature = "failpoints")]
    pub fn run(args: &super::Args) -> ! {
        imp::run(args)
    }

    #[cfg(feature = "failpoints")]
    mod imp {
        use super::super::*;
        use serde::Serialize;
        use std::collections::HashSet;
        use std::sync::atomic::AtomicU64;
        use webreason_failpoints::configure;

        const WIDE_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/Thing> }";
        const CHEAP_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/C0> }";
        const WRITE_CLASS_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/C1> }";

        /// 362 subclasses of `ex:Thing` with `per` instances each: the
        /// wide query reformulates into a 363-branch union.
        fn fixture_ttl(per: usize) -> String {
            let mut ttl = String::from(
                "@prefix ex: <http://ex/> .\n\
                 @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n",
            );
            for c in 0..362 {
                ttl.push_str(&format!("ex:C{c} rdfs:subClassOf ex:Thing .\n"));
                for i in 0..per {
                    ttl.push_str(&format!("ex:i{c}x{i} a ex:C{c} .\n"));
                }
            }
            ttl
        }

        fn post_with_deadline(path: &str, body: &str, deadline_ms: u64) -> Vec<u8> {
            format!(
                "POST {path} HTTP/1.1\r\nHost: loadgen\r\n\
                 X-Webreason-Deadline-Ms: {deadline_ms}\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        }

        /// One `Connection: close` GET, returning the status code.
        fn get_status(addr: SocketAddr, path: &str) -> std::io::Result<u16> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.write_all(
                format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )?;
            let mut buf = Vec::new();
            stream.read_to_end(&mut buf)?;
            String::from_utf8_lossy(&buf)
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| std::io::Error::other("no status line"))
        }

        fn wait_ready(addr: SocketAddr, budget: Duration) -> bool {
            let start = Instant::now();
            while start.elapsed() < budget {
                if matches!(get_status(addr, "/ready"), Ok(200)) {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            false
        }

        #[derive(Default)]
        struct WriterTally {
            /// Subjects the server acked with 200 — must all survive.
            acked: Vec<String>,
            /// Subjects refused with 5xx — must all be absent.
            refused: Vec<String>,
            rejected_429: u64,
            ambiguous: u64,
        }

        #[derive(Serialize)]
        struct DeadlineProbe {
            uncapped_ms: u64,
            deadline_ms: u64,
            /// Whether the cap was slow enough to assert on (uncapped
            /// > 2x deadline); when false the probe is informational.
            enforced: bool,
            status: u16,
            elapsed_ms: u64,
        }

        #[derive(Serialize)]
        struct ChaosReport {
            seed: u64,
            windows: usize,
            window_ms: u64,
            readers: usize,
            writers: usize,
            reads_ok: u64,
            read_errors: u64,
            /// Successful reads counted *inside* each fault window.
            reads_during_windows: Vec<u64>,
            writes_acked: u64,
            writes_refused_5xx: u64,
            writes_rejected_429: u64,
            writes_ambiguous: u64,
            degraded_entered: u64,
            degraded_exited: u64,
            recovered_within_budget: bool,
            /// Acked subjects missing from the recovered store (SLO: 0).
            lost_acked_writes: u64,
            /// 5xx'd subjects present in the recovered store (SLO: 0).
            phantom_refused_writes: u64,
            live_rows: u64,
            recovered_rows: u64,
            deadline: DeadlineProbe,
            slow_client_reaped: bool,
            slo_failures: Vec<String>,
        }

        pub fn run(args: &Args) -> ! {
            configure("");
            let windows = args.chaos_windows;
            let window = Duration::from_millis(args.chaos_window_ms);
            let readers = args.clients.saturating_sub(2).max(2);
            let writers = 2usize;
            println!(
                "== loadgen chaos: {readers} readers + {writers} writers, {windows} x \
                 {}ms ENOSPC windows, seed {} ==",
                args.chaos_window_ms, args.seed
            );

            let dir = std::env::temp_dir()
                .join(format!("webreason-loadgen-chaos-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = DurableStore::create(
                &dir,
                ReasoningConfig::Reformulation,
                NonZeroUsize::MIN,
                FsyncPolicy::Always,
            )
            .expect("store creates");
            // 200 instances per class: wide enough that the uncapped
            // 363-branch union takes tens of milliseconds even in release
            // builds, so the deadline probe genuinely bites.
            store.load_turtle(&fixture_ttl(200)).expect("fixture loads");
            let server = Server::start(
                store,
                ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    threads: 4,
                    update_queue: args.queue,
                    checkpoint_every: 0,
                    idle_timeout: Duration::from_millis(1000),
                    ..Default::default()
                },
            )
            .expect("server boots");
            let addr: SocketAddr = server.local_addr();

            let reg = obs::global();
            let entered0 = reg.counter_value("server.degraded.entered");
            let exited0 = reg.counter_value("server.degraded.exited");

            // Baseline for the deadline probe: the uncapped wide union.
            let mut probe_conn = connect_with_retry(addr);
            let mut head = Vec::new();
            let t = Instant::now();
            let status = roundtrip(&mut probe_conn, &post("/query", WIDE_QUERY), &mut head)
                .expect("uncapped wide query");
            assert_eq!(status, 200, "uncapped wide query must answer");
            let uncapped_ms = t.elapsed().as_millis() as u64;

            let stop = Arc::new(AtomicBool::new(false));
            let reads_ok = Arc::new(AtomicU64::new(0));
            let read_errors = Arc::new(AtomicU64::new(0));
            let reader_handles: Vec<_> = (0..readers)
                .map(|_| {
                    let stop = Arc::clone(&stop);
                    let reads_ok = Arc::clone(&reads_ok);
                    let read_errors = Arc::clone(&read_errors);
                    std::thread::spawn(move || {
                        let mut stream = connect_with_retry(addr);
                        let mut head = Vec::with_capacity(256);
                        while !stop.load(Ordering::Relaxed) {
                            match roundtrip(&mut stream, &post("/query", CHEAP_QUERY), &mut head) {
                                Ok(200) => {
                                    reads_ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(_) => {
                                    read_errors.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    read_errors.fetch_add(1, Ordering::Relaxed);
                                    stream = connect_with_retry(addr);
                                }
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                })
                .collect();
            let writer_handles: Vec<_> = (0..writers)
                .map(|c| {
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut stream = connect_with_retry(addr);
                        let mut head = Vec::with_capacity(256);
                        let mut tally = WriterTally::default();
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let subject = format!("http://ex/w{c}-{n}");
                            n += 1;
                            let body = format!(
                                "insert <{subject}> \
                                 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                                 <http://ex/C1> .\n"
                            );
                            match roundtrip(&mut stream, &post("/update", &body), &mut head) {
                                Ok(200) => tally.acked.push(subject),
                                Ok(429) => {
                                    tally.rejected_429 += 1;
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                Ok(s) if s >= 500 => tally.refused.push(subject),
                                Ok(_) => tally.ambiguous += 1,
                                Err(_) => {
                                    // The reply was lost mid-flight: the
                                    // write's fate is unknown — exclude it
                                    // from both membership sets.
                                    tally.ambiguous += 1;
                                    stream = connect_with_retry(addr);
                                }
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        tally
                    })
                })
                .collect();

            // Warmup, then the fault windows.
            std::thread::sleep(Duration::from_millis(500));
            let mut reads_during_windows = Vec::with_capacity(windows);
            let mut recovered_within_budget = true;
            let mut slow_client: Option<std::thread::JoinHandle<bool>> = None;
            for w in 0..windows {
                let before = reads_ok.load(Ordering::Relaxed);
                configure("store.journal.append=err(ENOSPC)");
                if w == 0 {
                    // A slow client stalls mid-request during the first
                    // window: the idle reaper must close it.
                    slow_client = Some(std::thread::spawn(move || {
                        let mut stream = connect_with_retry(addr);
                        if stream.write_all(b"POST /update HTTP/1.1\r\n").is_err() {
                            return false;
                        }
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(8)));
                        let mut buf = [0u8; 64];
                        // EOF or reset = reaped; a timeout means the stall
                        // pinned the connection for 8s.
                        !matches!(
                            stream.read(&mut buf),
                            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut
                        )
                    }));
                }
                std::thread::sleep(window);
                configure("");
                reads_during_windows.push(reads_ok.load(Ordering::Relaxed) - before);
                // The disk healed: the probe supervisor must exit degraded
                // mode on its own before the next window.
                if !wait_ready(addr, Duration::from_secs(10)) {
                    recovered_within_budget = false;
                }
                std::thread::sleep(Duration::from_millis(500));
            }

            // Deadline probe against the healed server, under load. The
            // original probe connection idled through the fault windows
            // and was reaped — that's the reaper doing its job; reconnect.
            // Best of three attempts: a prompt 504 proves cancellation is
            // enforced inside evaluation; a single descheduled attempt on
            // an oversubscribed box is scheduler noise, not a server SLO.
            let mut probe_conn = connect_with_retry(addr);
            let deadline_ms = (uncapped_ms / 4).max(5);
            let mut best: Option<(u16, u64)> = None;
            for _ in 0..3 {
                let t = Instant::now();
                let status = roundtrip(
                    &mut probe_conn,
                    &post_with_deadline("/query", WIDE_QUERY, deadline_ms),
                    &mut head,
                )
                .expect("capped wide query");
                let elapsed = t.elapsed().as_millis() as u64;
                if best.is_none_or(|(_, b)| elapsed < b) {
                    best = Some((status, elapsed));
                }
                if status == 504 && elapsed <= deadline_ms + 50 {
                    break;
                }
            }
            let (status, elapsed_ms) = best.expect("three probe attempts");
            let capped = DeadlineProbe {
                uncapped_ms,
                deadline_ms,
                enforced: uncapped_ms > deadline_ms * 2,
                status,
                elapsed_ms,
            };

            stop.store(true, Ordering::Relaxed);
            for h in reader_handles {
                h.join().expect("reader joins");
            }
            let mut tally = WriterTally::default();
            for h in writer_handles {
                let t = h.join().expect("writer joins");
                tally.acked.extend(t.acked);
                tally.refused.extend(t.refused);
                tally.rejected_429 += t.rejected_429;
                tally.ambiguous += t.ambiguous;
            }
            let slow_client_reaped = slow_client
                .map(|h| h.join().expect("slow client joins"))
                .unwrap_or(true);

            // A sentinel write proves the healed server still commits,
            // then the live row count pins the pre-shutdown state.
            let status = roundtrip(
                &mut probe_conn,
                &post(
                    "/update",
                    "insert <http://ex/sentinel> \
                     <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/C1> .",
                ),
                &mut head,
            )
            .expect("sentinel write");
            assert_eq!(status, 200, "post-chaos write must land");
            tally.acked.push("http://ex/sentinel".to_owned());
            let status = roundtrip(
                &mut probe_conn,
                &post("/query", WRITE_CLASS_QUERY),
                &mut head,
            )
            .expect("live row count");
            assert_eq!(status, 200);
            let live_rows = {
                let text = String::from_utf8_lossy(&head);
                let body = &text[text.find("\r\n\r\n").map(|p| p + 4).unwrap_or(0)..];
                body.matches("http://ex/").count() as u64
            };

            let degraded_entered = reg.counter_value("server.degraded.entered") - entered0;
            let degraded_exited = reg.counter_value("server.degraded.exited") - exited0;
            drop(server.shutdown());

            // Recovery comparison: the journal must rebuild exactly the
            // acked state — no lost acked writes, no phantom refused ones.
            let rec = webreason_core::Store::recover(&dir).expect("recovers");
            let recovered_rows = rec
                .answer_sparql(WRITE_CLASS_QUERY)
                .expect("recovered store answers")
                .len() as u64;
            let export = rec.export_ntriples();
            let subjects: HashSet<&str> = export
                .lines()
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            let lost_acked_writes = tally
                .acked
                .iter()
                .filter(|s| !subjects.contains(format!("<{s}>").as_str()))
                .count() as u64;
            let phantom_refused_writes = tally
                .refused
                .iter()
                .filter(|s| subjects.contains(format!("<{s}>").as_str()))
                .count() as u64;
            let _ = std::fs::remove_dir_all(&dir);

            let mut slo_failures: Vec<String> = Vec::new();
            let errors = read_errors.load(Ordering::Relaxed);
            if errors > 0 {
                slo_failures.push(format!("{errors} read errors (must be 0)"));
            }
            for (w, &n) in reads_during_windows.iter().enumerate() {
                if n == 0 {
                    slo_failures.push(format!("no reads flowed during window {w}"));
                }
            }
            if lost_acked_writes > 0 {
                slo_failures.push(format!("{lost_acked_writes} acked writes lost"));
            }
            if phantom_refused_writes > 0 {
                slo_failures.push(format!(
                    "{phantom_refused_writes} refused writes present after recovery"
                ));
            }
            if degraded_entered != windows as u64 || degraded_exited != windows as u64 {
                slo_failures.push(format!(
                    "degraded entered/exited {degraded_entered}/{degraded_exited}, \
                     expected {windows}/{windows}"
                ));
            }
            if !recovered_within_budget {
                slo_failures.push("degraded mode did not clear within 10s of heal".to_owned());
            }
            if live_rows != recovered_rows {
                slo_failures.push(format!(
                    "live rows {live_rows} != recovered rows {recovered_rows}"
                ));
            }
            if !slow_client_reaped {
                slo_failures.push("slow client was not reaped".to_owned());
            }
            if capped.enforced {
                if capped.status != 504 {
                    slo_failures.push(format!(
                        "deadline-capped query returned {} (expected 504)",
                        capped.status
                    ));
                } else if capped.elapsed_ms > capped.deadline_ms + 50 {
                    slo_failures.push(format!(
                        "504 took {}ms against a {}ms deadline (+50ms budget)",
                        capped.elapsed_ms, capped.deadline_ms
                    ));
                }
            }

            let report = ChaosReport {
                seed: args.seed,
                windows,
                window_ms: args.chaos_window_ms,
                readers,
                writers,
                reads_ok: reads_ok.load(Ordering::Relaxed),
                read_errors: errors,
                reads_during_windows,
                writes_acked: tally.acked.len() as u64,
                writes_refused_5xx: tally.refused.len() as u64,
                writes_rejected_429: tally.rejected_429,
                writes_ambiguous: tally.ambiguous,
                degraded_entered,
                degraded_exited,
                recovered_within_budget,
                lost_acked_writes,
                phantom_refused_writes,
                live_rows,
                recovered_rows,
                deadline: capped,
                slow_client_reaped,
                slo_failures: slo_failures.clone(),
            };
            let table = vec![vec![
                report.reads_ok.to_string(),
                report.read_errors.to_string(),
                report.writes_acked.to_string(),
                report.writes_refused_5xx.to_string(),
                format!("{degraded_entered}/{degraded_exited}"),
                report.lost_acked_writes.to_string(),
                format!("{}/{}", report.deadline.status, report.deadline.elapsed_ms),
                report.slow_client_reaped.to_string(),
            ]];
            println!(
                "{}",
                render_table(
                    &[
                        "reads ok",
                        "read errs",
                        "acked",
                        "5xx",
                        "degraded in/out",
                        "lost acked",
                        "504 probe (st/ms)",
                        "reaped",
                    ],
                    &table
                )
            );
            for f in &slo_failures {
                eprintln!("chaos SLO FAILED: {f}");
            }
            if slo_failures.is_empty() {
                println!("all chaos SLOs held");
            }

            let ok = emit_json("table_chaos", &report);
            if args.strict && !slo_failures.is_empty() {
                std::process::exit(1);
            }
            std::process::exit(if ok { 0 } else { 1 });
        }
    }
}
