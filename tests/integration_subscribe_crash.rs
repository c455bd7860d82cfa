//! Crash-equivalence for subscriptions (build with `--features failpoints`).
//!
//! The property: **killing the writer mid-delta-publication — after the
//! journal committed the update but before subscribers saw its batch —
//! loses no data**. A subscriber that had acknowledged epochs up to the
//! crash re-attaches against the recovered store, catches up from its
//! last acked epoch, and must converge to the from-scratch oracle —
//! including the very update whose publication was cut short.
//!
//! Mechanics mirror `integration_crash.rs`: the test re-executes itself
//! filtered to [`subscribe_crash_child_entry`] with `WEBREASON_FAILPOINTS`
//! arming `store.subscribe.publish` (the first instruction of
//! [`SubscriptionHub::publish`]) with `abort@n`. The child journals a
//! fixed update script through a [`DurableStore`], two subscribers (one
//! `DISTINCT`, one bag) catch up after every epoch and persist their
//! accumulated state and acknowledged epoch; the abort kills it with the
//! n-th update journaled but undelivered.

#![cfg(feature = "failpoints")]

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::Command;

use durability::FsyncPolicy;
use rdf_model::Term;
use webreason_core::{DurableStore, MaintenanceAlgorithm, ReasoningConfig, Store};
use webreason_incremental::{DeltaBatch, HubConfig, SubscriptionHub};

const SCHEMA: &str = r#"
    @prefix ex: <http://ex/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    ex:Cat rdfs:subClassOf ex:Mammal .
"#;
const SET_Q: &str = "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE { ?x a ex:Mammal }";
const BAG_Q: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";

/// The update script: one journaled update → one `hub.publish` per row.
///
/// | n | update                  | MAMMALS after |
/// |---|-------------------------|---------------|
/// | 1 | + Tom a Cat             | 1             |
/// | 2 | + Rex a Mammal          | 2             |
/// | 3 | + Ana a Cat             | 3             |
/// | 4 | − Tom a Cat             | 2             |
/// | 5 | + Dog ⊑ Mammal (schema) | 2             |
/// | 6 | + Fido a Dog            | 3             |
///
/// `EXPECTED_MAMMALS[n]` is the distinct answer count with the first `n`
/// updates committed. Update 5 is a schema change: its publication is a
/// full view rebuild, so the abort also covers the rebuild path.
const EXPECTED_MAMMALS: [usize; 7] = [0, 1, 2, 3, 2, 2, 3];
const N_UPDATES: u32 = 6;

fn script_op(n: u32) -> (bool, Term, Term, Term) {
    let a = Term::iri(rdf_model::vocab::RDF_TYPE);
    let sub = Term::iri(rdf_model::vocab::RDFS_SUB_CLASS_OF);
    let ex = |l: &str| Term::iri(format!("http://ex/{l}"));
    match n {
        1 => (true, ex("Tom"), a, ex("Cat")),
        2 => (true, ex("Rex"), a, ex("Mammal")),
        3 => (true, ex("Ana"), a, ex("Cat")),
        4 => (false, ex("Tom"), a, ex("Cat")),
        5 => (true, ex("Dog"), sub, ex("Mammal")),
        6 => (true, ex("Fido"), a, ex("Dog")),
        _ => unreachable!(),
    }
}

/// Client state: last acked epoch plus row → signed count. Rows are
/// joined with `\u{1f}` (unit separator) — safe for N-Triples terms.
type ClientState = (u64, BTreeMap<Vec<String>, i64>);

fn apply_batch(state: &mut BTreeMap<Vec<String>, i64>, batch: &DeltaBatch) {
    if batch.reset {
        state.clear();
    }
    for ev in &batch.events {
        *state.entry(ev.row.clone()).or_insert(0) += ev.delta;
    }
    state.retain(|_, m| *m != 0);
}

/// One catch-up from the client's acknowledged epoch, applied to its
/// state; the acknowledged epoch advances with every batch.
fn poll(hub: &SubscriptionHub, id: u64, client: &mut ClientState) {
    let cu = hub.catch_up(id, client.0).expect("subscription alive");
    assert!(cu.terminal.is_none(), "stream ended: {:?}", cu.terminal);
    for b in &cu.batches {
        apply_batch(&mut client.1, b);
        client.0 = client.0.max(b.epoch);
    }
}

/// Persists a client's accumulated state atomically (tmp + rename), as a
/// real reconnecting client would durably track its acked position.
fn persist(dir: &Path, name: &str, state: &ClientState) {
    let mut text = format!("{}\n", state.0);
    for (row, m) in &state.1 {
        text.push_str(&format!("{m}\t{}\n", row.join("\u{1f}")));
    }
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, text).expect("state writes");
    std::fs::rename(&tmp, dir.join(name)).expect("state renames");
}

fn restore(dir: &Path, name: &str) -> ClientState {
    let text = std::fs::read_to_string(dir.join(name)).expect("client state survives the crash");
    let mut lines = text.lines();
    let acked = lines.next().unwrap().parse().expect("acked epoch");
    let mut state = BTreeMap::new();
    for line in lines {
        let (m, row) = line.split_once('\t').expect("count TAB row");
        state.insert(
            row.split('\u{1f}').map(str::to_owned).collect(),
            m.parse().expect("signed count"),
        );
    }
    (acked, state)
}

/// The child workload: journal the script through a durable store while
/// two subscribers follow it, checkpointing client state between epochs.
fn run_workload(dir: &Path) {
    let mut ds = DurableStore::create(
        dir,
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        NonZeroUsize::MIN,
        FsyncPolicy::Always,
    )
    .expect("child creates the store");
    ds.set_delta_tracking(true);
    ds.load_turtle(SCHEMA).expect("schema loads");
    ds.publish();
    let _ = ds.take_delta(); // nobody subscribed yet
    let reader = ds.reader();

    let hub = SubscriptionHub::new(HubConfig::default());
    let cancel = obs::CancelToken::none();
    let mut clients: Vec<(u64, &str, ClientState)> = Vec::new();
    for (query, name) in [(SET_Q, "client-set"), (BAG_Q, "client-bag")] {
        let ok = hub
            .subscribe(&reader, query, false, &cancel)
            .expect("registers");
        let mut state = BTreeMap::new();
        apply_batch(&mut state, &ok.initial);
        let client = (ok.epoch, state);
        persist(dir, name, &client);
        clients.push((ok.id, name, client));
    }

    for n in 1..=N_UPDATES {
        let old = reader.snapshot();
        let (insert, s, p, o) = script_op(n);
        if insert {
            ds.insert_terms(&s, &p, &o).expect("journaled insert");
        } else {
            ds.delete_terms(&s, &p, &o).expect("journaled delete");
        }
        let delta = ds.take_delta();
        ds.publish();
        let new = reader.snapshot();
        // The armed abort fires here, with update n committed in the
        // journal but its batch never delivered.
        hub.publish(&old, &new, &delta);

        for (id, name, client) in &mut clients {
            poll(&hub, *id, client);
            persist(dir, name, client);
        }
    }
    std::fs::write(dir.join("workload-done"), b"done").expect("marker");
}

/// Inert under a normal run; the crash driver arms it via env vars.
#[test]
fn subscribe_crash_child_entry() {
    let Ok(dir) = std::env::var("WEBREASON_CRASH_DIR") else {
        return;
    };
    run_workload(Path::new(&dir));
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("webreason-subcrash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// From-scratch set oracle: the store's own strategy-aware answer path.
fn set_oracle(store: &Store) -> BTreeMap<Vec<String>, i64> {
    let reader = store.reader();
    let snap = reader.snapshot();
    let q = snap.prepare(SET_Q).unwrap();
    let (sols, _) = snap.answer(&q).unwrap();
    let dict = snap.dictionary();
    let mut out = BTreeMap::new();
    for row in sols.as_set() {
        let decoded: Vec<String> = row
            .iter()
            .map(|id| dict.decode(*id).unwrap().to_string())
            .collect();
        out.insert(decoded, 1);
    }
    out
}

/// From-scratch bag oracle: re-derive every multiplicity from zero with
/// the reference evaluator (`sparql::evaluate`, no code shared with the
/// view's trie walk), filtered by `finalize_read`.
fn bag_oracle(store: &Store) -> BTreeMap<Vec<String>, i64> {
    let reader = store.reader();
    let snap = reader.snapshot();
    let q = snap.prepare(BAG_Q).unwrap();
    let graph = snap.view_graph().expect("saturated view graph");
    let dict = snap.dictionary();
    let sols = sparql::finalize_read(sparql::evaluate(graph, &q), &q, &dict);
    let mut out: BTreeMap<Vec<String>, i64> = BTreeMap::new();
    for row in sols.rows.iter() {
        let decoded: Vec<String> = row
            .iter()
            .map(|id| dict.decode(*id).unwrap().to_string())
            .collect();
        *out.entry(decoded).or_insert(0) += 1;
    }
    out
}

fn distinct_keys(state: &BTreeMap<Vec<String>, i64>) -> BTreeMap<Vec<String>, i64> {
    state
        .iter()
        .filter(|(_, &m)| m > 0)
        .map(|(k, _)| (k.clone(), 1))
        .collect()
}

/// Kills a child at the n-th `store.subscribe.publish`, recovers the
/// directory, re-attaches both clients from their persisted state, and
/// asserts convergence to the from-scratch oracle.
fn crash_reattach_and_check(hit: u32) {
    let dir = tmpdir(&format!("publish-{hit}"));
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(&exe)
        .args(["--exact", "subscribe_crash_child_entry", "--nocapture"])
        .env("WEBREASON_CRASH_DIR", &dir)
        .env(
            "WEBREASON_FAILPOINTS",
            format!("store.subscribe.publish=abort@{hit}"),
        )
        .output()
        .expect("child spawns");
    assert!(
        !out.status.success(),
        "hit {hit}: child survived\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        !dir.join("workload-done").exists(),
        "hit {hit}: workload finished before the abort fired"
    );

    // Write-ahead order: the update whose publication was killed is in
    // the journal, so recovery must include it.
    let mut rec =
        Store::recover(&dir).unwrap_or_else(|e| panic!("hit {hit}: recovery failed: {e}"));
    rec.set_delta_tracking(true);
    assert_eq!(
        rec.answer_sparql(SET_Q).expect("answers").len(),
        EXPECTED_MAMMALS[hit as usize],
        "hit {hit}: recovered store lost the committed update"
    );
    rec.snapshot();
    let reader = rec.reader();

    // Re-attach both clients: fresh hub (the old one died with the
    // process), re-register, catch up from the last epoch each client
    // durably acked. That epoch predates the recovered log, so catch-up
    // answers with a snapshot-reset batch — applying it over the stale
    // accumulated state must land exactly on the from-scratch oracle.
    let hub = SubscriptionHub::new(HubConfig::default());
    let cancel = obs::CancelToken::none();
    let mut subs: Vec<(u64, &str, ClientState)> = Vec::new();
    for (query, name) in [(SET_Q, "client-set"), (BAG_Q, "client-bag")] {
        let mut client = restore(&dir, name);
        let ok = hub
            .subscribe(&reader, query, false, &cancel)
            .expect("re-registers");
        poll(&hub, ok.id, &mut client);
        if name == "client-set" {
            assert_eq!(
                distinct_keys(&client.1),
                set_oracle(&rec),
                "hit {hit}: {name} diverged after catch-up"
            );
        } else {
            assert_eq!(
                client.1,
                bag_oracle(&rec),
                "hit {hit}: {name} diverged after catch-up"
            );
        }
        subs.push((ok.id, name, client));
    }

    // Convergence continues: one more update on the recovered store
    // reaches the re-attached subscribers' next catch-up.
    let old = reader.snapshot();
    rec.insert_terms(
        &Term::iri("http://ex/Post"),
        &Term::iri(rdf_model::vocab::RDF_TYPE),
        &Term::iri("http://ex/Cat"),
    );
    let delta = rec.take_delta();
    let new = rec.snapshot();
    hub.publish(&old, &new, &delta);
    for (id, name, client) in &mut subs {
        poll(&hub, *id, client);
        if *name == "client-set" {
            assert_eq!(distinct_keys(&client.1), set_oracle(&rec));
        } else {
            assert_eq!(client.1, bag_oracle(&rec));
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill mid-publication at every update of the script — including the
/// schema-change rebuild (hit 5) and the post-delete epoch (hit 4).
#[test]
fn killed_mid_delta_publication_reattaches_to_the_oracle() {
    for hit in 1..=N_UPDATES {
        crash_reattach_and_check(hit);
    }
}
