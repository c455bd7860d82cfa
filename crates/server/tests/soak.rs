//! Seeded stress/soak: concurrent query clients and per-namespace update
//! clients hammer a real server over real sockets for a time budget
//! (default 2 s; set `WEBREASON_SOAK_SECS` to run longer) while the
//! writer checkpoints periodically. At the end:
//!
//! * the store the server hands back equals a cold journal replay of the
//!   same directory (base graph, answers) — durability under load;
//! * the recovered base graph equals the set computed by replaying each
//!   client's *acknowledged* ops in order (clients own disjoint subject
//!   namespaces, so the cross-client interleaving cannot matter);
//! * the obs request counters reconcile exactly with the client-side
//!   tallies — no request is double-counted or dropped.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webreason_core::{DurableStore, FsyncPolicy, MaintenanceAlgorithm, ReasoningConfig, Store};
use webreason_server::{Server, ServerConfig};

const UPDATE_CLIENTS: usize = 3;
const QUERY_CLIENTS: usize = 3;

const MAMMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";

fn soak_secs() -> u64 {
    std::env::var("WEBREASON_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Deterministic per-client PRNG.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout sets");
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("request writes");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("response reads");
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, text)
}

#[derive(Default)]
struct UpdateTally {
    sent: u64,
    accepted: u64,
    rejected: u64,
    /// The triples present at the end of this client's acknowledged ops.
    live: BTreeSet<(String, String)>,
}

/// One update client: inserts and deletes class memberships inside its
/// own subject namespace, replaying the acknowledged outcome locally.
fn update_client(addr: SocketAddr, id: usize, stop: Arc<AtomicBool>) -> UpdateTally {
    let mut rng = Lcg(0x5EED + id as u64);
    let mut tally = UpdateTally::default();
    while !stop.load(Ordering::SeqCst) {
        let subject = format!("http://ex/c{id}s{}", rng.below(16));
        let class = if rng.below(2) == 0 { "Cat" } else { "Mammal" };
        let delete = rng.below(4) == 0 && !tally.live.is_empty();
        let body = if delete {
            let victim = tally
                .live
                .iter()
                .nth(rng.below(tally.live.len() as u64) as usize)
                .cloned()
                .expect("non-empty");
            format!(
                "delete <{}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{}> .\n",
                victim.0, victim.1
            )
        } else {
            format!(
                "insert <{subject}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://ex/{class}> .\n"
            )
        };
        tally.sent += 1;
        let (status, text) = post(addr, "/update", &body);
        match status {
            200 => {
                tally.accepted += 1;
                if delete {
                    // Re-derive the victim from the body we sent.
                    let s = body.split('<').nth(1).unwrap().split('>').next().unwrap();
                    let o = body.split('<').nth(3).unwrap().split('>').next().unwrap();
                    tally.live.remove(&(s.to_owned(), o.to_owned()));
                } else {
                    tally
                        .live
                        .insert((subject.clone(), format!("http://ex/{class}")));
                }
            }
            429 => tally.rejected += 1,
            other => panic!("update client {id}: unexpected {other}: {text}"),
        }
    }
    tally
}

/// One query client: counts every answered query.
fn query_client(addr: SocketAddr, stop: Arc<AtomicBool>) -> u64 {
    let mut answered = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let (status, text) = post(addr, "/query", MAMMALS);
        assert_eq!(status, 200, "query client: {text}");
        answered += 1;
    }
    answered
}

#[test]
fn soak_reactor_backend_reconciles() {
    let dir = std::env::temp_dir().join(format!("webreason-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    obs::global().reset();

    let mut store = DurableStore::create(
        &dir,
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        NonZeroUsize::MIN,
        FsyncPolicy::Never,
    )
    .expect("store creates");
    store
        .load_turtle(
            "@prefix ex: <http://ex/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:Cat rdfs:subClassOf ex:Mammal .\n",
        )
        .expect("schema loads");

    let server = Server::start(
        store,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            checkpoint_every: 8, // checkpoints fire many times per second
            ..Default::default()
        },
    )
    .expect("server boots");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let updaters: Vec<_> = (0..UPDATE_CLIENTS)
        .map(|id| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || update_client(addr, id, stop))
        })
        .collect();
    let queriers: Vec<_> = (0..QUERY_CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || query_client(addr, stop))
        })
        .collect();

    std::thread::sleep(Duration::from_secs(soak_secs()));
    stop.store(true, Ordering::SeqCst);

    let tallies: Vec<UpdateTally> = updaters
        .into_iter()
        .map(|h| h.join().expect("update client"))
        .collect();
    let queries_answered: u64 = queriers
        .into_iter()
        .map(|h| h.join().expect("query client"))
        .sum();

    let returned = server.shutdown();

    // --- Oracle 1: counters reconcile with the client-side tallies -----
    let reg = obs::global();
    let sent: u64 = tallies.iter().map(|t| t.sent).sum();
    let accepted: u64 = tallies.iter().map(|t| t.accepted).sum();
    let rejected: u64 = tallies.iter().map(|t| t.rejected).sum();
    assert!(sent > 0 && queries_answered > 0, "the soak did some work");
    assert_eq!(reg.counter_value("server.query.requests"), queries_answered);
    assert_eq!(reg.counter_value("server.update.requests"), sent);
    assert_eq!(reg.counter_value("server.update.enqueued"), accepted);
    assert_eq!(reg.counter_value("server.update.applied"), accepted);
    assert_eq!(reg.counter_value("server.update.rejected"), rejected);
    let checkpoints = reg.counter_value("server.checkpoint.count");
    assert_eq!(checkpoints, accepted / 8, "periodic checkpoints fired");

    // --- Oracle 2: returned store == cold journal replay ---------------
    let replayed = Store::recover(&dir).expect("journal replays");
    assert_eq!(
        replayed.export_ntriples(),
        returned.store().export_ntriples(),
        "live store and journal replay disagree on the base graph"
    );
    let a = returned.answer_sparql(MAMMALS).expect("returned answers");
    let b = replayed.answer_sparql(MAMMALS).expect("replayed answers");
    assert_eq!(
        a.to_strings(&returned.store().dictionary()),
        b.to_strings(&replayed.dictionary()),
        "live store and journal replay disagree on answers"
    );

    // --- Oracle 3: base graph == union of acknowledged client ops ------
    let mut expected: BTreeSet<String> = tallies
        .iter()
        .flat_map(|t| t.live.iter())
        .map(|(s, class)| {
            format!("<{s}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{class}> .")
        })
        .collect();
    expected.insert(
        "<http://ex/Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Mammal> ."
            .to_owned(),
    );
    let actual: BTreeSet<String> = returned
        .store()
        .export_ntriples()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(
        actual, expected,
        "acknowledged ops replay to the base graph"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
