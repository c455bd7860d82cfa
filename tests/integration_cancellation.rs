//! Cancellation correctness: a query abandoned mid-evaluation must leave
//! *nothing* behind — no partial rows, no published `sparql.*` workload
//! counters, no poisoned caches — so that a subsequent identical query on
//! the same store behaves bit-identically to one that was never preceded
//! by a cancelled run. Every test runs under the three answer paths —
//! `q(G∞)` on a counting-maintained saturation, the reformulated union and
//! the interval rewriting — which share one executor and its poll sites.
//! The deterministic [`CancelToken::trip_after_checks`] mode walks the
//! trip point across every poll site (entry, per-branch planning,
//! per-trie-root and per-stride evaluation) without sleeps; the proptest
//! half samples random trip points on top.

use obs::CancelToken;
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;
use webreason_core::{AnswerError, MaintenanceAlgorithm, ReasoningConfig, Store};

/// The obs registry is process-global, so tests that assert counter
/// deltas must not interleave with other answer-running tests.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The three answer paths, each with the workload counters a finished
/// answer publishes (none for `q(G∞)`).
const STRATEGIES: [(ReasoningConfig, &[&str]); 3] = [
    (
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        &[],
    ),
    (
        ReasoningConfig::Reformulation,
        &["sparql.union.queries", "sparql.union.rows"],
    ),
    (
        ReasoningConfig::Interval,
        &["sparql.range.queries", "sparql.range.rows"],
    ),
];

/// A store whose `?x a ex:Thing` query has 300 answers: 60 subclasses
/// with 5 instances each. Reformulated it is a 60-branch union, interval
/// rewritten one range atom, saturated one pattern over `G∞` — wide
/// enough that every poll site (planning, evaluation) is reached.
fn fixture_store(config: ReasoningConfig) -> Store {
    let mut ttl = String::from(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n",
    );
    for c in 0..60 {
        ttl.push_str(&format!("ex:C{c} rdfs:subClassOf ex:Thing .\n"));
        for i in 0..5 {
            ttl.push_str(&format!("ex:i{c}x{i} a ex:C{c} .\n"));
        }
    }
    let mut store = Store::new(config);
    store.load_turtle(&ttl).expect("fixture parses");
    store
}

const QUERY: &str = "SELECT ?x WHERE { ?x a <http://ex/Thing> }";

#[test]
fn cancelled_union_rerun_is_bit_identical() {
    let _guard = serial();
    let reg = obs::global();
    for (config, published) in STRATEGIES {
        let store = fixture_store(config);
        let reader = store.reader();
        let q = store.prepare(QUERY).expect("query parses");
        let (baseline, _, _) = reader.answer(&q).expect("uncancelled run answers");
        let baseline = baseline.sorted_rows();
        assert_eq!(baseline.len(), 300, "60 classes x 5 instances");

        let at = config.name();
        let mut cancelled_past_entry = false;
        // Trip points 1..=40 sweep the entry poll, the per-branch
        // planning polls, and (with enough checks surviving) into the
        // evaluation polls; large values land after completion.
        for trip in 1u64..=40 {
            let before: Vec<u64> = published.iter().map(|c| reg.counter_value(c)).collect();
            let cancels_before = reg.counter_value("core.answer.cancelled");
            let token = CancelToken::trip_after_checks(trip);
            match reader.answer_cancel(&q, &token) {
                Ok((sols, _, _)) => {
                    // The token tripped too late (or not at all): the
                    // full answer must be exactly the baseline.
                    assert_eq!(
                        sols.sorted_rows(),
                        baseline,
                        "late-trip answer diverged ({at}, trip {trip})"
                    );
                }
                Err(AnswerError::Cancelled) => {
                    cancelled_past_entry |= trip >= 2;
                    // The abandoned pass published none of the workload
                    // counters a finished answer publishes...
                    for (counter, was) in published.iter().zip(&before) {
                        assert_eq!(
                            reg.counter_value(counter),
                            *was,
                            "cancelled pass published {counter} ({at}, trip {trip})"
                        );
                    }
                    // ...except the cancellation tally itself.
                    assert_eq!(
                        reg.counter_value("core.answer.cancelled"),
                        cancels_before + 1,
                        "cancellation not counted ({at}, trip {trip})"
                    );
                    // Rerunning the identical query immediately must
                    // reproduce the baseline bit-for-bit.
                    let (sols, _, _) = reader.answer(&q).expect("rerun answers");
                    assert_eq!(
                        sols.sorted_rows(),
                        baseline,
                        "post-cancel rerun diverged ({at}, trip {trip})"
                    );
                }
                Err(other) => panic!("unexpected error ({at}, trip {trip}): {other}"),
            }
        }
        assert!(
            cancelled_past_entry,
            "no trip point past the entry poll cancelled ({at}) — poll sites missing?"
        );
    }
}

#[test]
fn expired_deadline_cancels_before_evaluation() {
    let _guard = serial();
    for (config, _) in STRATEGIES {
        let store = fixture_store(config);
        let reader = store.reader();
        let q = store.prepare(QUERY).expect("query parses");
        let token = CancelToken::with_deadline(Duration::ZERO);
        match reader.answer_cancel(&q, &token) {
            Err(AnswerError::Cancelled) => {}
            other => panic!(
                "expired deadline should cancel under {}, got {other:?}",
                config.name()
            ),
        }
        // The store still answers normally afterwards.
        let (sols, _, _) = reader.answer(&q).expect("store still answers");
        assert_eq!(sols.len(), 300);
    }
}

#[test]
fn none_token_is_equivalent_to_plain_answer() {
    let _guard = serial();
    for (config, _) in STRATEGIES {
        let store = fixture_store(config);
        let reader = store.reader();
        let q = store.prepare(QUERY).expect("query parses");
        let (plain, _, _) = reader.answer(&q).expect("plain");
        let (with_token, _, _) = reader
            .answer_cancel(&q, &CancelToken::none())
            .expect("none token");
        assert_eq!(plain.sorted_rows(), with_token.sorted_rows());
    }
}

/// Case-count knob, mirroring `integration_equivalence.rs`.
fn env_cases(default: u32) -> u32 {
    std::env::var("WEBREASON_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_cases(24)))]

    /// Random (strategy, trip point) pairs: the cancelled
    /// attempt either completes with the exact baseline answer or cancels
    /// cleanly, and the rerun is always bit-identical to the baseline.
    #[test]
    fn random_cancel_points_never_corrupt_state(
        strategy in 0usize..STRATEGIES.len(),
        trip in 1u64..600,
    ) {
        let _guard = serial();
        let store = fixture_store(STRATEGIES[strategy].0);
        let reader = store.reader();
        let q = store.prepare(QUERY).expect("query parses");
        let (baseline, _, _) = reader.answer(&q).expect("baseline answers");
        let baseline = baseline.sorted_rows();

        let token = CancelToken::trip_after_checks(trip);
        match reader.answer_cancel(&q, &token) {
            Ok((sols, _, _)) => prop_assert_eq!(sols.sorted_rows(), baseline.clone()),
            Err(AnswerError::Cancelled) => {}
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
        let (rerun, _, _) = reader.answer(&q).expect("rerun answers");
        prop_assert_eq!(rerun.sorted_rows(), baseline);
    }
}
