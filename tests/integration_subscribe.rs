//! Differential epoch-replay oracle for incremental views.
//!
//! Seeded random insert/delete scripts run through the store while 1, 2
//! or 4 concurrent subscribers pull delta batches from the
//! [`SubscriptionHub`], each a cursor catching up from its own last
//! acknowledged epoch. The invariant locked down here is the whole point
//! of the subsystem: **accumulating a subscription's delta stream
//! reproduces the from-scratch answer at every published epoch** — under
//! set (`SELECT DISTINCT`) and bag semantics, under Saturation and
//! Reformulation, with mid-script registrations, schema changes (view
//! rebuilds) and a slow cursor that falls off the bounded epoch log
//! thrown in.
//!
//! `WEBREASON_PROPTEST_CASES` scales the case count (CI pins it).

use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::Term;
use rustc_hash::FxHashMap;
use webreason_core::StoreReader;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store, StoreSnapshot};
use webreason_incremental::{DeltaBatch, HubConfig, SubscriptionHub};

const TYPE: &str = rdf_model::vocab::RDF_TYPE;
const SUBCLASS: &str = rdf_model::vocab::RDFS_SUB_CLASS_OF;

/// One script operation, generated over small id spaces so collisions
/// (re-inserts, deletes of absent facts, net-zero churn) are common.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `n{a} rdf:type C{b}` — the bread-and-butter entailment feedstock.
    Type { insert: bool, node: u8, class: u8 },
    /// `n{a} p0 n{b}` — property facts for the join query.
    Prop { insert: bool, s: u8, o: u8 },
    /// `C{a} rdfs:subClassOf C{b}` — a schema change: forces the hub to
    /// rebuild every view (recompile + recount).
    Schema { insert: bool, sub: u8, sup: u8 },
}

#[derive(Debug, Clone)]
struct Scenario {
    /// Initial subclass edges loaded before anything subscribes.
    schema: Vec<(u8, u8)>,
    /// Facts present before registration (initial state is non-empty).
    preload: Vec<(u8, u8)>,
    /// The update script: one inner vec per published epoch.
    epochs: Vec<Vec<Op>>,
    /// 1, 2 or 4 concurrent subscribers per query.
    n_subs: usize,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..10, proptest::bool::ANY, 0u8..7, 0u8..7).prop_map(|(kind, insert, a, b)| match kind {
        0..=5 => Op::Type {
            insert,
            node: a,
            class: b % 5,
        },
        6..=8 => Op::Prop { insert, s: a, o: b },
        _ => Op::Schema {
            insert,
            sub: a % 5,
            sup: b % 5,
        },
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec((0u8..5, 0u8..5), 0..5),
        proptest::collection::vec((0u8..7, 0u8..5), 0..8),
        proptest::collection::vec(proptest::collection::vec(arb_op(), 1..5), 1..7),
        prop_oneof![Just(1usize), Just(2), Just(4)],
    )
        .prop_map(|(schema, preload, epochs, n_subs)| Scenario {
            schema,
            preload,
            epochs,
            n_subs,
        })
}

fn iri(kind: &str, i: u8) -> String {
    format!("http://ex/{kind}{i}")
}

fn apply_op(store: &mut Store, op: Op) {
    let (insert, s, p, o) = match op {
        Op::Type {
            insert,
            node,
            class,
        } => (insert, iri("n", node), TYPE.to_owned(), iri("C", class)),
        Op::Prop { insert, s, o } => (insert, iri("n", s), iri("p", 0), iri("n", o)),
        Op::Schema { insert, sub, sup } => {
            (insert, iri("C", sub), SUBCLASS.to_owned(), iri("C", sup))
        }
    };
    let (s, p, o) = (Term::iri(s), Term::iri(p), Term::iri(o));
    if insert {
        store.insert_terms(&s, &p, &o);
    } else {
        store.delete_terms(&s, &p, &o);
    }
}

/// Accumulates a subscriber's batches into row → signed count state,
/// exactly as a client would.
fn apply_batch(state: &mut FxHashMap<Vec<String>, i64>, batch: &DeltaBatch) {
    if batch.reset {
        state.clear();
    }
    for ev in &batch.events {
        *state.entry(ev.row.clone()).or_insert(0) += ev.delta;
    }
    state.retain(|_, m| *m != 0);
}

/// From-scratch **set** oracle: the store's own strategy-aware answer
/// path (`snap.answer`).
fn set_oracle(store: &Store, sparql: &str) -> FxHashMap<Vec<String>, i64> {
    let reader = store.reader();
    let snap = reader.snapshot();
    let q = snap.prepare(sparql).unwrap();
    let (sols, _) = snap.answer(&q).unwrap();
    let dict = snap.dictionary();
    let mut out = FxHashMap::default();
    for row in sols.as_set() {
        let decoded: Vec<String> = row
            .iter()
            .map(|id| dict.decode(*id).unwrap().to_string())
            .collect();
        out.insert(decoded, 1);
    }
    out
}

/// From-scratch **bag** oracle: the reference evaluator
/// (`sparql::evaluate`, which shares no code with the view's trie walk)
/// over the view graph, filtered by `finalize_read` — every row
/// multiplicity re-derived from zero.
fn bag_oracle(
    snap: &StoreSnapshot,
    sparql: &str,
    reformulate: bool,
) -> FxHashMap<Vec<String>, i64> {
    let q = snap.prepare(sparql).unwrap();
    let mut evaluated = if reformulate {
        (*snap.reformulated(&q).unwrap().expect("BGP reformulates")).clone()
    } else {
        q.clone()
    };
    evaluated.distinct = false;
    let graph = snap.view_graph().expect("materialized view graph");
    let dict = snap.dictionary();
    let sols = sparql::finalize_read(sparql::evaluate(graph, &evaluated), &q, &dict);
    let mut out: FxHashMap<Vec<String>, i64> = FxHashMap::default();
    for row in sols.rows.iter() {
        let decoded: Vec<String> = row
            .iter()
            .map(|id| dict.decode(*id).unwrap().to_string())
            .collect();
        *out.entry(decoded).or_insert(0) += 1;
    }
    out
}

fn distinct_keys(state: &FxHashMap<Vec<String>, i64>) -> FxHashMap<Vec<String>, i64> {
    state
        .iter()
        .filter(|(_, &m)| m > 0)
        .map(|(k, _)| (k.clone(), 1))
        .collect()
}

/// `?x a C0` — touched by subclass entailment from every direction.
const SET_QUERY: &str = "SELECT DISTINCT ?x WHERE { ?x a <http://ex/C0> }";
const BAG_QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/C0> }";
/// A join: property fact × entailed type — deltas must seed both
/// positions (old graph left of the seed, new graph right of it).
const JOIN_QUERY: &str = "SELECT ?x ?y WHERE { ?x <http://ex/p0> ?y . ?y a <http://ex/C0> }";

/// Epoch-log bound of the oracle's hub: small, so the slow cursor below
/// falls off the log within the short generated scripts.
const LOG_CAP: usize = 2;

/// A client-side cursor over one subscription.
struct Cursor {
    id: u64,
    state: FxHashMap<Vec<String>, i64>,
    /// Last epoch this cursor acknowledged; the next catch-up starts here.
    acked: u64,
}

impl Cursor {
    fn register(hub: &SubscriptionHub, reader: &StoreReader, sparql: &str) -> Cursor {
        let ok = hub
            .subscribe(reader, sparql, false, &obs::CancelToken::none())
            .expect("registers");
        let mut state = FxHashMap::default();
        apply_batch(&mut state, &ok.initial);
        Cursor {
            id: ok.id,
            state,
            acked: ok.epoch,
        }
    }

    /// Catches up from the acknowledged epoch, applies the batches and
    /// returns them.
    fn poll(&mut self, hub: &SubscriptionHub) -> Result<Vec<Arc<DeltaBatch>>, String> {
        let cu = hub.catch_up(self.id, self.acked).expect("cursor alive");
        prop_assert!(cu.terminal.is_none(), "cursor {} ended", self.id);
        for b in &cu.batches {
            prop_assert!(b.epoch > self.acked || b.reset, "stale or duplicate epoch");
            apply_batch(&mut self.state, b);
            self.acked = self.acked.max(b.epoch);
        }
        Ok(cu.batches)
    }
}

/// Runs one scenario under one strategy for one query, with
/// `scenario.n_subs` cursors polling after every epoch, a straggler
/// registering mid-script, and one slow cursor that polls only every
/// `LOG_CAP + 1` epochs.
fn check_scenario(
    s: &Scenario,
    config: ReasoningConfig,
    sparql: &str,
    distinct: bool,
) -> Result<(), String> {
    // Under both rewriting strategies the views evaluate the union
    // reformulation (the interval encoding only changes the answer
    // path), so the bag oracle reformulates for either.
    let reformulate = matches!(
        config,
        ReasoningConfig::Reformulation | ReasoningConfig::Interval
    );
    let mut store = Store::new(config);
    store.set_delta_tracking(true);
    for &(sub, sup) in &s.schema {
        apply_op(
            &mut store,
            Op::Schema {
                insert: true,
                sub,
                sup,
            },
        );
    }
    for &(node, class) in &s.preload {
        apply_op(
            &mut store,
            Op::Type {
                insert: true,
                node,
                class,
            },
        );
    }
    // Registration must see the loaded state: publish it first, and drop
    // the pre-registration delta (nobody is subscribed yet).
    let _ = store.take_delta();
    store.snapshot();

    let hub = SubscriptionHub::new(HubConfig {
        log_capacity: LOG_CAP,
        ..HubConfig::default()
    });
    let reader = store.reader();
    let mut cursors: Vec<Cursor> = (0..s.n_subs)
        .map(|_| Cursor::register(&hub, &reader, sparql))
        .collect();
    let mut slow = Cursor::register(&hub, &reader, sparql);
    // Batches published since the slow cursor last polled.
    let mut slow_pending = 0usize;

    // A straggler registers halfway through the script; its initial
    // snapshot must match the oracle *at that epoch*.
    let mid = s.epochs.len() / 2;
    let mut straggler: Option<Cursor> = None;

    let verify =
        |store: &Store, state: &FxHashMap<Vec<String>, i64>, who: &str| -> Result<(), String> {
            if distinct {
                let oracle = set_oracle(store, sparql);
                prop_assert_eq!(
                    &distinct_keys(state),
                    &oracle,
                    "{} diverged from the set oracle",
                    who
                );
            } else {
                let reader = store.reader();
                let snap = reader.snapshot();
                let oracle = bag_oracle(&snap, sparql, reformulate);
                prop_assert_eq!(state, &oracle, "{} diverged from the bag oracle", who);
            }
            Ok(())
        };

    for (i, epoch_ops) in s.epochs.iter().enumerate() {
        if i == mid {
            let cursor = Cursor::register(&hub, &reader, sparql);
            verify(&store, &cursor.state, "straggler initial")?;
            straggler = Some(cursor);
        }

        let old = store.snapshot();
        for &op in epoch_ops {
            apply_op(&mut store, op);
        }
        let delta = store.take_delta();
        let new = store.snapshot();
        hub.publish(&old, &new, &delta);
        let epoch = new.epoch();

        for (k, cursor) in cursors.iter_mut().chain(straggler.as_mut()).enumerate() {
            let batches = cursor.poll(&hub)?;
            // Every epoch publishes at most one batch per view, so a
            // cursor polling each epoch sees every batch the log held.
            if k == 0 {
                slow_pending += batches.len();
            }
            prop_assert!(cursor.acked <= epoch);
            verify(&store, &cursor.state, "cursor")?;
        }

        // The slow cursor: once more than LOG_CAP batches went by, the
        // oldest it needs has been evicted and catch-up must start with
        // a snapshot reset — from which it converges all the same.
        if (i + 1) % (LOG_CAP + 1) == 0 || i + 1 == s.epochs.len() {
            let batches = slow.poll(&hub)?;
            if slow_pending > LOG_CAP {
                prop_assert!(batches[0].reset, "fell off the log without a reset");
            }
            verify(&store, &slow.state, "slow cursor")?;
            slow_pending = 0;
        }

        // All concurrent cursors of one view agree with each other.
        for pair in cursors.windows(2) {
            prop_assert_eq!(&pair[0].state, &pair[1].state, "cursors disagree");
        }
    }
    Ok(())
}

/// Case-count knob: `WEBREASON_PROPTEST_CASES=200` for a deeper local
/// run; CI exports a fixed value so runs are comparable.
fn env_cases(default: u32) -> u32 {
    std::env::var("WEBREASON_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_cases(24)))]

    /// Saturation (Counting maintenance): subscribers consume the
    /// *entailed* delta over G∞.
    #[test]
    fn saturation_streams_replay_to_the_oracle(s in arb_scenario()) {
        let cfg = ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting);
        check_scenario(&s, cfg, SET_QUERY, true)?;
        check_scenario(&s, cfg, BAG_QUERY, false)?;
    }

    /// Reformulation: views run q_ref over the base graph and consume the
    /// base delta; schema ops force live view rebuilds.
    #[test]
    fn reformulation_streams_replay_to_the_oracle(s in arb_scenario()) {
        let cfg = ReasoningConfig::Reformulation;
        check_scenario(&s, cfg, SET_QUERY, true)?;
        check_scenario(&s, cfg, BAG_QUERY, false)?;
    }

    /// The join view under both strategies: deltas seed every pattern
    /// position, probing old graph left of the seed and new graph right.
    #[test]
    fn join_views_replay_to_the_oracle(s in arb_scenario()) {
        let sat = ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting);
        check_scenario(&s, sat, JOIN_QUERY, false)?;
        check_scenario(&s, ReasoningConfig::Reformulation, JOIN_QUERY, false)?;
    }

    /// Interval: the set oracle answers through the interval path (so a
    /// mid-script schema op forces a live re-encode of the interval
    /// dictionary) while the views keep streaming — neither side may
    /// corrupt the other.
    #[test]
    fn interval_streams_replay_to_the_oracle(s in arb_scenario()) {
        let cfg = ReasoningConfig::Interval;
        check_scenario(&s, cfg, SET_QUERY, true)?;
        check_scenario(&s, cfg, BAG_QUERY, false)?;
        check_scenario(&s, cfg, JOIN_QUERY, false)?;
    }
}

/// The journal-replay half of the mid-stream re-encode story: a durable
/// interval store takes a schema change between two data batches (each
/// answered through the interval path, so the first encoding exists and
/// is then invalidated), and [`Store::recover`] must rebuild a store
/// that answers exactly like the live one.
#[test]
fn interval_reencode_survives_journal_replay() {
    use std::num::NonZeroUsize;
    use webreason_core::{DurableStore, FsyncPolicy};

    let dir =
        std::env::temp_dir().join(format!("webreason-interval-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut live = DurableStore::create(
        &dir,
        ReasoningConfig::Interval,
        NonZeroUsize::MIN,
        FsyncPolicy::Never,
    )
    .expect("durable store creates");

    let c0 = "SELECT DISTINCT ?x WHERE { ?x a <http://ex/C0> }";
    let answers = |s: &Store| s.answer_sparql(c0).unwrap().as_set();

    live.load_turtle(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:C1 rdfs:subClassOf ex:C0 .\n\
         ex:n0 a ex:C1 .\n",
    )
    .expect("initial load");
    assert_eq!(live.store().answer_sparql(c0).unwrap().len(), 1);

    // Schema change mid-stream: C2 joins the hierarchy, so the interval
    // encoding built for the answer above is stale and must be rebuilt.
    live.load_turtle(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:C2 rdfs:subClassOf ex:C0 .\n\
         ex:n1 a ex:C2 .\n",
    )
    .expect("schema change loads");
    assert_eq!(live.store().answer_sparql(c0).unwrap().len(), 2);

    // And a retraction on top, to replay a delete through the journal.
    live.delete_terms(
        &Term::iri("http://ex/n0"),
        &Term::iri(TYPE),
        &Term::iri("http://ex/C1"),
    )
    .expect("delete journals");

    let rec = Store::recover(live.dir()).expect("recovery replays the journal");
    assert_eq!(rec.stats(), live.stats());
    assert_eq!(answers(&rec), answers(live.store()));
    assert_eq!(rec.answer_sparql(c0).unwrap().len(), 1, "n1 remains");
}
