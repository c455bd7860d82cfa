//! Snapshot-isolation oracle suite.
//!
//! The property under test: **while a writer applies an update storm,
//! every answer a concurrent reader observes equals `q(G∞)` of some
//! committed prefix of the update sequence** — never a torn state, never
//! a rolled-back one — and the epochs a reader observes never go
//! backwards.
//!
//! Mechanics: the update sequence is generated from a fixed seed, so the
//! oracle can be computed ahead of time by replaying the same batches on
//! a sequential store and recording `q`'s answers after each prefix
//! (answers are compared as rendered term strings, which are stable even
//! though concurrent interning assigns different `TermId`s). The writer
//! then replays the batches against the live store, publishing after each
//! one and logging the epoch it published; reader threads hammer the
//! query throughout and log every `(epoch, answers)` pair they see. After
//! the join, each observation must match the oracle's answer set for its
//! epoch exactly.

use rdf_model::{Pattern, Term, TermId, Triple};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store, StoreSnapshot};
use workload::lubm::{generate, queries, LubmConfig, NS_DATA, NS_UB};
use workload::NamedQuery;

const SCHEMA: &str = r#"
    @prefix ex: <http://ex/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    ex:Cat rdfs:subClassOf ex:Mammal .
    ex:Mammal rdfs:subClassOf ex:Animal .
"#;
const ANIMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Animal }";

/// Batches per scenario — enough churn for readers to land mid-storm.
const BATCHES: usize = 32;

#[derive(Debug, Clone)]
enum Op {
    Insert(Term, Term, Term),
    Delete(Term, Term, Term),
}

/// A tiny deterministic PRNG (64-bit LCG, high bits): the whole suite
/// must replay identically from the seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn rdf_type() -> Term {
    Term::iri(rdf_model::vocab::RDF_TYPE)
}

fn sub_class_of() -> Term {
    Term::iri(rdf_model::vocab::RDFS_SUB_CLASS_OF)
}

/// The seeded update storm: instance inserts into the `Cat`/`Mammal`
/// hierarchy, deletions of previously-inserted triples, and a periodic
/// schema extension (a fresh subclass) so the schema-swap path runs too.
fn generate_batches(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = Lcg(seed);
    let mut live: Vec<(Term, Term, Term)> = Vec::new();
    let mut batches = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        let mut batch = Vec::new();
        if i % 8 == 7 {
            // Schema churn: a new class under ex:Animal plus one member.
            let class = Term::iri(format!("http://ex/Breed{i}"));
            batch.push(Op::Insert(
                class.clone(),
                sub_class_of(),
                Term::iri("http://ex/Animal"),
            ));
            let ind = Term::iri(format!("http://ex/breedling{i}"));
            live.push((ind.clone(), rdf_type(), class.clone()));
            batch.push(Op::Insert(ind, rdf_type(), class));
        } else {
            for _ in 0..=rng.below(2) {
                let class = if rng.below(2) == 0 { "Cat" } else { "Mammal" };
                let ind = Term::iri(format!("http://ex/ind{}", rng.below(24)));
                let class = Term::iri(format!("http://ex/{class}"));
                live.push((ind.clone(), rdf_type(), class.clone()));
                batch.push(Op::Insert(ind, rdf_type(), class));
            }
            if !live.is_empty() && rng.below(3) == 0 {
                let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                batch.push(Op::Delete(victim.0, victim.1, victim.2));
            }
        }
        batches.push(batch);
    }
    batches
}

fn apply_batch(store: &mut Store, batch: &[Op]) {
    for op in batch {
        match op {
            Op::Insert(s, p, o) => {
                store.insert_terms(s, p, o);
            }
            Op::Delete(s, p, o) => {
                store.delete_terms(s, p, o);
            }
        }
    }
}

fn seeded_store(config: ReasoningConfig) -> Store {
    let mut store = Store::new(config);
    store.load_turtle(SCHEMA).expect("schema loads");
    store
}

/// Replays the storm sequentially and records `q`'s rendered answers
/// after each committed prefix (index 0 = schema only).
fn oracle_answers(config: ReasoningConfig, batches: &[Vec<Op>]) -> Vec<Vec<String>> {
    let mut store = seeded_store(config);
    let mut answers = Vec::with_capacity(batches.len() + 1);
    let observe = |store: &Store| {
        store
            .answer_sparql(ANIMALS)
            .expect("oracle answers")
            .to_strings(&store.dictionary())
    };
    answers.push(observe(&store));
    for batch in batches {
        apply_batch(&mut store, batch);
        answers.push(observe(&store));
    }
    answers
}

/// One reader's log: every `(epoch, answers)` it observed.
type Observations = Vec<(u64, Vec<String>)>;

/// Runs the storm with `n_readers` concurrent readers and checks every
/// observation against the committed-prefix oracle.
fn run_scenario(config: ReasoningConfig, n_readers: usize, seed: u64) {
    let batches = generate_batches(seed);
    let expected = oracle_answers(config, &batches);

    let mut store = seeded_store(config);
    // Epoch -> prefix index, recorded by the writer as it publishes. Two
    // prefixes can share an epoch only when the later batch was a no-op,
    // in which case their oracle answers agree as well.
    let mut published: Vec<(u64, usize)> = vec![(store.snapshot().epoch(), 0)];

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..n_readers)
        .map(|_| {
            let reader = store.reader();
            let done = Arc::clone(&done);
            std::thread::spawn(move || -> Observations {
                let mut log = Observations::new();
                let mut last_epoch = 0u64;
                loop {
                    let (sols, _stats, epoch) =
                        reader.answer_sparql(ANIMALS).expect("reader answers");
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    log.push((epoch, sols.to_strings(&reader.dictionary())));
                    if done.load(Ordering::SeqCst) {
                        return log;
                    }
                }
            })
        })
        .collect();

    for (i, batch) in batches.iter().enumerate() {
        apply_batch(&mut store, batch);
        published.push((store.snapshot().epoch(), i + 1));
    }
    done.store(true, Ordering::SeqCst);

    // epoch -> oracle answers for that committed prefix.
    let by_epoch: std::collections::HashMap<u64, &Vec<String>> = published
        .iter()
        .map(|&(epoch, prefix)| (epoch, &expected[prefix]))
        .collect();

    let mut total = 0usize;
    for handle in readers {
        let log = handle.join().expect("reader thread");
        assert!(!log.is_empty(), "reader observed nothing");
        total += log.len();
        for (epoch, answers) in log {
            let want = by_epoch.get(&epoch).unwrap_or_else(|| {
                panic!("observed epoch {epoch} that the writer never published")
            });
            assert_eq!(
                &&answers, want,
                "answers at epoch {epoch} match no committed prefix"
            );
        }
    }
    // The final prefix must be reachable: the last thing every reader saw
    // is the fully-applied storm (done was set after the last publish).
    assert!(total >= n_readers, "every reader logs at least once");
}

const CONFIGS: [ReasoningConfig; 3] = [
    ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
    ReasoningConfig::Reformulation,
    ReasoningConfig::Interval,
];

#[test]
fn single_reader_sees_only_committed_prefixes() {
    for (i, config) in CONFIGS.into_iter().enumerate() {
        run_scenario(config, 1, 0xC0FFEE + i as u64);
    }
}

#[test]
fn two_readers_see_only_committed_prefixes() {
    for (i, config) in CONFIGS.into_iter().enumerate() {
        run_scenario(config, 2, 0xBEEF + i as u64);
    }
}

#[test]
fn four_readers_see_only_committed_prefixes() {
    for (i, config) in CONFIGS.into_iter().enumerate() {
        run_scenario(config, 4, 0xF00D + i as u64);
    }
}

/// A reader that holds one snapshot across several queries gets one
/// frozen world: repeated evaluation mid-storm is bit-stable.
#[test]
fn a_held_snapshot_is_immutable_mid_storm() {
    let batches = generate_batches(0xDECADE);
    let mut store = seeded_store(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
    let reader = store.reader();

    let snap = reader.snapshot();
    let q = reader.prepare(ANIMALS).expect("parses");
    let (before, _) = snap.answer(&q).expect("answers");
    let before = before.to_strings(&reader.dictionary());

    for batch in &batches {
        apply_batch(&mut store, batch);
        store.snapshot(); // publish: later readers see it, `snap` must not
    }

    let (after, _) = snap.answer(&q).expect("still answers");
    assert_eq!(after.to_strings(&reader.dictionary()), before);
    // A fresh snapshot does observe the storm.
    let fresh_epoch = reader.snapshot().epoch();
    assert!(fresh_epoch > snap.epoch(), "publishes advanced the epoch");
}

/// Updates in the LUBM-1 immutability test.
const LUBM_UPDATES: usize = 300;

/// LUBM Q1–Q10 answered by `snap`, rows sorted, multiplicities kept.
fn lubm_answers(snap: &StoreSnapshot, named: &[NamedQuery]) -> Vec<Vec<Vec<TermId>>> {
    named
        .iter()
        .map(|nq| {
            snap.answer(&nq.query)
                .expect("LUBM query answers")
                .0
                .sorted_rows()
        })
        .collect()
}

/// The snapshot's own graph (`G∞` when saturated, `G` otherwise), copied
/// out triple by triple so the copy shares no storage with it.
fn triple_set(snap: &StoreSnapshot) -> Vec<Triple> {
    let mut triples: Vec<Triple> = snap
        .view_graph()
        .expect("strategy has a graph")
        .iter()
        .collect();
    triples.sort();
    triples
}

/// The same property as above at LUBM-1 scale, where the `rdf:type`
/// entries of POS and the class objects of OSP hold thousands of triples:
/// a held snapshot keeps its answers and its exact triple set while the
/// writer inserts and deletes instance and schema triples under those
/// keys, publishing after every update; a fresh snapshot sees them.
#[test]
fn a_held_lubm_snapshot_is_immutable_under_updates() {
    let mut ds = generate(&LubmConfig::scaled(1));
    let named = queries(&mut ds);
    let vocab = ds.vocab;
    let ub = |name: &str| Term::iri(format!("{NS_UB}{name}"));
    let classes = [
        "GraduateStudent",
        "UndergraduateStudent",
        "FullProfessor",
        "Lecturer",
    ];
    let type_triples = ds
        .graph
        .matches(&Pattern::new(None, Some(vocab.rdf_type), None));
    let sub_class_triples = ds
        .graph
        .matches(&Pattern::new(None, Some(vocab.sub_class_of), None));
    assert!(type_triples.len() > 1000 && sub_class_triples.len() > 2);

    for config in [
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        ReasoningConfig::Reformulation,
        ReasoningConfig::Interval,
    ] {
        let mut store = Store::from_parts(ds.dict.clone(), vocab, ds.graph.clone(), config);
        let reader = store.reader();
        let held = reader.snapshot();
        let answers = lubm_answers(&held, &named);
        let triples = triple_set(&held);

        let mut rng = Lcg(0x5EED);
        let mut inserted = Vec::new();
        for i in 0..LUBM_UPDATES {
            let any_type = type_triples[rng.below(type_triples.len() as u64) as usize];
            match i % 6 {
                // A new individual typed at a leaf class.
                0 | 1 => {
                    let s = Term::iri(format!("{NS_DATA}fresh{i}"));
                    let class = ub(classes[rng.below(classes.len() as u64) as usize]);
                    store.insert_terms(&s, &rdf_type(), &class);
                    inserted.push((s, class));
                }
                // An existing individual loses a type for good.
                2 => {
                    store.delete(&any_type);
                }
                // A new subclass of a populated class, with a member.
                3 => {
                    let class = Term::iri(format!("{NS_UB}Fresh{i}"));
                    store.insert_terms(&class, &sub_class_of(), &ub("Student"));
                    let s = Term::iri(format!("{NS_DATA}freshling{i}"));
                    store.insert_terms(&s, &rdf_type(), &class);
                }
                // An instance type and a schema triple of the ontology go
                // and come back, one published epoch later.
                _ => {
                    let t = if i % 6 == 4 {
                        any_type
                    } else {
                        sub_class_triples[(i / 6) % sub_class_triples.len()]
                    };
                    store.delete(&t);
                    store.snapshot();
                    store.insert(t);
                }
            }
            store.snapshot();
        }

        let name = config.name();
        assert_eq!(
            lubm_answers(&held, &named),
            answers,
            "{name}: held answers moved"
        );
        assert_eq!(triple_set(&held), triples, "{name}: held triple set moved");

        let fresh = reader.snapshot();
        assert!(
            fresh.epoch() > held.epoch(),
            "{name}: publishes advanced the epoch"
        );
        let fresh_graph = fresh.view_graph().expect("strategy has a graph");
        let inserted: Vec<Triple> = {
            let dict = fresh.dictionary();
            let id = |term| dict.get_id(term).expect("inserted terms are interned");
            inserted
                .iter()
                .map(|(s, class)| Triple::new(id(s), vocab.rdf_type, id(class)))
                .collect()
        };
        assert!(
            inserted.iter().all(|t| fresh_graph.contains(t)),
            "{name}: a fresh snapshot misses an insert"
        );
        assert_ne!(
            lubm_answers(&fresh, &named),
            answers,
            "{name}: fresh answers moved on"
        );
    }
}

/// Finalizing an answer interns a term only for `COUNT` (its result
/// literal), so every other query finalizes under a dictionary *read*
/// guard: it completes while another thread holds `reader.dictionary()`,
/// whereas a `COUNT` waits for that guard to drop.
#[test]
fn only_count_waits_for_a_held_dictionary_guard() {
    use std::sync::mpsc;
    use std::time::Duration;

    let mut store = seeded_store(ReasoningConfig::Reformulation);
    store.insert_terms(
        &Term::iri("http://ex/Tom"),
        &rdf_type(),
        &Term::iri("http://ex/Cat"),
    );
    let reader = store.reader();
    let plain = reader.prepare(ANIMALS).expect("parses");
    let count = reader
        .prepare("PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?x a ex:Animal }")
        .expect("parses");

    let guard = reader.dictionary();
    let answer_on_thread = |q: sparql::Query| {
        let (tx, rx) = mpsc::channel();
        let reader = reader.clone();
        std::thread::spawn(move || {
            let rows = reader.answer(&q).expect("answers").0.len();
            tx.send(rows).expect("the test is listening");
        });
        rx
    };
    let plain_rows = answer_on_thread(plain)
        .recv_timeout(Duration::from_secs(30))
        .expect("a non-aggregate answer needs no write lock");
    assert_eq!(plain_rows, 1, "Tom");
    let counted = answer_on_thread(count);
    assert!(
        counted.recv_timeout(Duration::from_millis(200)).is_err(),
        "COUNT interns its result, so it waits for the read guard"
    );
    drop(guard);
    assert_eq!(counted.recv_timeout(Duration::from_secs(30)), Ok(1));
}
