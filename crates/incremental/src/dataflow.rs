//! A view's dataflow on the one executor: an update's triple events in,
//! the signed rows of the view's answer out.
//!
//! A view evaluates the *bag* form of one query — `q` over `G∞` under
//! saturation, `q_ref` over `G` under reformulation and interval stores —
//! and filters with the query as *registered*. Its initial state is
//! [`eval_full`] and its changes are [`eval_delta`]; both run through the
//! trie walker that answers `POST /query` and filter through
//! [`finalize_read`], so a view and an answer share one planner, one
//! walker and one `FILTER` implementation.

use obs::CancelToken;
use rdf_model::{Dictionary, Graph, TermId, Triple};
use sparql::{
    execute_delta, finalize_read, try_execute, Executable, Query, Solutions, UnionEvalError,
};
use std::num::NonZeroUsize;

/// Why `q` has no delta form, or `None` if it has one.
pub(crate) fn refusal(q: &Query) -> Option<String> {
    let what = if q.aggregate.is_some() {
        // `COUNT` would need its own maintenance operator.
        "aggregate queries"
    } else if !q.not_exists.is_empty() {
        // Non-monotone per binding: a change can flip answers that no
        // delta term seeds.
        "FILTER NOT EXISTS"
    } else if !q.modifiers.is_empty() {
        // Presentation-level: a delta stream of an ordered prefix is not
        // well-defined.
        "solution modifiers (ORDER BY/LIMIT/OFFSET)"
    } else {
        return None;
    };
    Some(format!("{what} cannot be incrementally maintained"))
}

/// Consolidates an event-ordered signed triple stream (as drained from the
/// store) into the net change `[inserted, deleted]`: the store records
/// only effective changes, so a triple's events alternate and each one
/// cancels the opposite event before it.
pub(crate) fn consolidate_delta(events: &[(Triple, bool)]) -> [Graph; 2] {
    let [mut inserted, mut deleted] = [Graph::new(), Graph::new()];
    for &(t, add) in events {
        let (to, from) = if add {
            (&mut inserted, &mut deleted)
        } else {
            (&mut deleted, &mut inserted)
        };
        if !from.remove(&t) {
            to.insert(t);
        }
    }
    [inserted, deleted]
}

/// The view's complete answer over `g`, one row per derivation: the bag
/// query `effective` through the executor, filtered by `registered`.
/// `cancel` is polled inside the walk.
pub(crate) fn eval_full(
    g: &Graph,
    effective: &Query,
    registered: &Query,
    dict: &Dictionary,
    cancel: &CancelToken,
) -> Result<Solutions, UnionEvalError> {
    let (sols, _) = try_execute(g, Executable::Plain(effective), NonZeroUsize::MIN, cancel)?;
    Ok(finalize_read(sols, registered, dict))
}

/// Calls `emit(row, ±1)` once per derivation of the view's answer gained
/// (`+1`) or lost (`−1`) between `old` and `new`, where `change` is their
/// consolidated difference `[inserted, deleted]`.
pub(crate) fn eval_delta(
    old: &Graph,
    new: &Graph,
    change: &[Graph; 2],
    effective: &Query,
    registered: &Query,
    dict: &Dictionary,
    mut emit: impl FnMut(&[TermId], i64),
) {
    for (delta, sign) in change.iter().zip([1, -1]) {
        if delta.is_empty() {
            continue;
        }
        let sols = finalize_read(execute_delta(old, delta, new, effective), registered, dict);
        for row in sols.rows.iter() {
            emit(row, sign);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashMap;
    use sparql::{evaluate, parse_query};

    fn setup(turtle: &str) -> (Dictionary, Graph) {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(turtle, &mut dict, &mut g).unwrap();
        (dict, g)
    }

    fn bag(q: &Query) -> Query {
        Query {
            distinct: false,
            ..q.clone()
        }
    }

    /// Splits a consolidated signed delta into `[inserted, deleted]`.
    fn change(delta: &[(Triple, i64)]) -> [Graph; 2] {
        let [mut inserted, mut deleted] = [Graph::new(), Graph::new()];
        for &(t, s) in delta {
            if s > 0 {
                inserted.insert(t);
            } else {
                deleted.insert(t);
            }
        }
        [inserted, deleted]
    }

    /// Applies a consolidated delta to a graph copy.
    fn apply(g: &Graph, delta: &[(Triple, i64)]) -> Graph {
        let mut out = g.clone();
        for &(t, s) in delta {
            if s > 0 {
                assert!(out.insert(t), "insert of present triple");
            } else {
                assert!(out.remove(&t), "delete of absent triple");
            }
        }
        out
    }

    /// Bag of projected rows with multiplicities, from scratch through the
    /// reference evaluator — no code shared with the walker.
    fn scratch_counts(q: &Query, g: &Graph, dict: &Dictionary) -> FxHashMap<Vec<TermId>, i64> {
        let mut counts = FxHashMap::default();
        for row in finalize_read(evaluate(g, &bag(q)), q, dict).rows.iter() {
            *counts.entry(row.to_vec()).or_insert(0) += 1;
        }
        counts
    }

    /// Old bag + delta rows, with zero counts dropped.
    fn maintained(
        q: &Query,
        dict: &Dictionary,
        old: &Graph,
        delta: &[(Triple, i64)],
    ) -> FxHashMap<Vec<TermId>, i64> {
        let new = apply(old, delta);
        let mut counts = scratch_counts(q, old, dict);
        eval_delta(old, &new, &change(delta), &bag(q), q, dict, |row, m| {
            *counts.entry(row.to_vec()).or_insert(0) += m;
        });
        counts.retain(|_, m| *m != 0);
        counts
    }

    fn check_delta_matches_rescratch(
        q: &Query,
        dict: &Dictionary,
        old: &Graph,
        delta: Vec<(Triple, i64)>,
    ) {
        let expect = scratch_counts(q, &apply(old, &delta), dict);
        assert_eq!(
            maintained(q, dict, old, &delta),
            expect,
            "delta-maintained bag diverged"
        );
    }

    #[test]
    fn single_pattern_insert_and_delete() {
        let (mut dict, g) = setup(
            r#"@prefix ex: <http://ex/> .
               ex:a ex:p ex:b . ex:b ex:p ex:c ."#,
        );
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:p ?y }",
            &mut dict,
        )
        .unwrap();
        let p = dict.get_iri_id("http://ex/p").unwrap();
        let a = dict.get_iri_id("http://ex/a").unwrap();
        let c = dict.get_iri_id("http://ex/c").unwrap();
        check_delta_matches_rescratch(&q, &dict, &g, vec![(Triple::new(a, p, c), 1)]);
        let b = dict.get_iri_id("http://ex/b").unwrap();
        check_delta_matches_rescratch(&q, &dict, &g, vec![(Triple::new(b, p, c), -1)]);
    }

    #[test]
    fn join_delta_covers_all_positions() {
        let (mut dict, g) = setup(
            r#"@prefix ex: <http://ex/> .
               ex:a ex:knows ex:b . ex:b ex:knows ex:c .
               ex:c ex:knows ex:d . ex:x ex:knows ex:a ."#,
        );
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
            &mut dict,
        )
        .unwrap();
        let knows = dict.get_iri_id("http://ex/knows").unwrap();
        let b = dict.get_iri_id("http://ex/b").unwrap();
        let d = dict.get_iri_id("http://ex/d").unwrap();
        let a = dict.get_iri_id("http://ex/a").unwrap();
        // Mixed batch: one insert creating new 2-hop paths through both
        // join sides, one delete removing existing ones.
        check_delta_matches_rescratch(
            &q,
            &dict,
            &g,
            vec![
                (Triple::new(d, knows, b), 1),
                (Triple::new(a, knows, b), -1),
            ],
        );
    }

    #[test]
    fn self_join_same_triple_both_positions() {
        // ?x knows ?y . ?y knows ?z with a triple participating on both
        // sides (b knows b): the delta rule must count each derivation
        // exactly once per position.
        let (mut dict, g) = setup(
            r#"@prefix ex: <http://ex/> .
               ex:a ex:knows ex:b ."#,
        );
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
            &mut dict,
        )
        .unwrap();
        let knows = dict.get_iri_id("http://ex/knows").unwrap();
        let b = dict.get_iri_id("http://ex/b").unwrap();
        check_delta_matches_rescratch(&q, &dict, &g, vec![(Triple::new(b, knows, b), 1)]);
        // And removal of the loop once inserted.
        let mut g2 = g.clone();
        g2.insert(Triple::new(b, knows, b));
        check_delta_matches_rescratch(&q, &dict, &g2, vec![(Triple::new(b, knows, b), -1)]);
    }

    #[test]
    fn union_branches_contribute_multiplicities() {
        let (mut dict, g) = setup(
            r#"@prefix ex: <http://ex/> .
               ex:a ex:p ex:b ."#,
        );
        // Overlapping branches: a row answering both branches has bag
        // multiplicity 2; deleting the support of one branch must leave it.
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x ex:p ?y } UNION { ?x ex:q ?y } }",
            &mut dict,
        )
        .unwrap();
        let qprop = dict.get_iri_id("http://ex/q").unwrap();
        let a = dict.get_iri_id("http://ex/a").unwrap();
        let b = dict.get_iri_id("http://ex/b").unwrap();
        check_delta_matches_rescratch(&q, &dict, &g, vec![(Triple::new(a, qprop, b), 1)]);
        let mut g2 = g.clone();
        g2.insert(Triple::new(a, qprop, b));
        let p = dict.get_iri_id("http://ex/p").unwrap();
        // Delete one of two derivations: bag count drops 2 → 1.
        let counts = maintained(&q, &dict, &g2, &[(Triple::new(a, p, b), -1)]);
        assert_eq!(
            counts.get(&vec![a]).copied(),
            Some(1),
            "one derivation left"
        );
    }

    #[test]
    fn filters_apply_to_delta_rows() {
        // Plain literals compare lexically (same rule as `finalize`).
        let (mut dict, g) = setup(
            r#"@prefix ex: <http://ex/> .
               ex:a ex:age "c" . ex:b ex:age "a" ."#,
        );
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?v WHERE { ?x ex:age ?v . FILTER (?v > \"b\") }",
            &mut dict,
        )
        .unwrap();
        let age = dict.get_iri_id("http://ex/age").unwrap();
        let c = dict.encode_iri("http://ex/c");
        let pass = dict.encode(&rdf_model::Term::literal("d"));
        let fail = dict.encode(&rdf_model::Term::literal("a"));
        check_delta_matches_rescratch(&q, &dict, &g, vec![(Triple::new(c, age, pass), 1)]);
        // A row failing the filter emits nothing.
        let delta = vec![(Triple::new(c, age, fail), 1)];
        let new = apply(&g, &delta);
        let mut emitted = 0;
        eval_delta(&g, &new, &change(&delta), &bag(&q), &q, &dict, |_, _| {
            emitted += 1
        });
        assert_eq!(emitted, 0);
    }

    #[test]
    fn unsupported_features_are_rejected() {
        let mut dict = Dictionary::new();
        let refused = |q: &Query| refusal(q).expect("refused");
        let q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?x ?p ?y }", &mut dict);
        // Variable-property queries still parse; only the view refuses.
        if let Ok(q) = q {
            assert_eq!(
                refused(&q),
                "aggregate queries cannot be incrementally maintained"
            );
        }
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y . FILTER NOT EXISTS { ?x ex:q ?y } }",
            &mut dict,
        )
        .unwrap();
        assert_eq!(
            refused(&q),
            "FILTER NOT EXISTS cannot be incrementally maintained"
        );
        let mut q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y } LIMIT 3",
            &mut dict,
        )
        .unwrap();
        let modifiers =
            "solution modifiers (ORDER BY/LIMIT/OFFSET) cannot be incrementally maintained";
        assert_eq!(refused(&q), modifiers);
        q.modifiers.limit = None;
        q.modifiers.order_by = vec![sparql::OrderKey {
            var: sparql::Variable(0),
            descending: false,
        }];
        assert_eq!(refused(&q), modifiers);
        q.modifiers.order_by.clear();
        assert_eq!(refusal(&q), None);
    }

    #[test]
    fn eval_full_matches_evaluate_as_set() {
        let (mut dict, g) = setup(
            r#"@prefix ex: <http://ex/> .
               ex:a ex:p ex:b . ex:b ex:p ex:c . ex:a ex:q ex:b ."#,
        );
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT DISTINCT ?x ?y WHERE { { ?x ex:p ?y } UNION { ?x ex:q ?y } }",
            &mut dict,
        )
        .unwrap();
        let full = eval_full(&g, &bag(&q), &q, &dict, &CancelToken::none()).unwrap();
        // One row per derivation: `evaluate`'s bag, collapsing to its set.
        assert_eq!(full.sorted_rows(), evaluate(&g, &bag(&q)).sorted_rows());
        assert_eq!(full.len(), 3);
        assert_eq!(full.as_set(), evaluate(&g, &q).as_set());
        assert_eq!(full.as_set().len(), 2);
    }

    #[test]
    fn consolidation_nets_out_churn() {
        let mut dict = Dictionary::new();
        let p = dict.encode_iri("http://ex/p");
        let a = dict.encode_iri("http://ex/a");
        let b = dict.encode_iri("http://ex/b");
        let c = dict.encode_iri("http://ex/c");
        let t1 = Triple::new(a, p, b);
        let t2 = Triple::new(a, p, c);
        let t3 = Triple::new(b, p, c);
        // t1: insert then delete (absent before) → nets out.
        // t2: delete then insert (present before) → nets out.
        // t3: plain insert → survives.
        let events = vec![(t1, true), (t2, false), (t3, true), (t1, false), (t2, true)];
        let [inserted, deleted] = consolidate_delta(&events);
        assert_eq!(inserted.iter().collect::<Vec<_>>(), vec![t3]);
        assert!(deleted.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        type ArbTriples = Vec<(u8, u8, u8)>;
        type ArbDeltaOps = Vec<(u8, u8, u8, bool)>;

        fn arb_graph_and_delta() -> impl Strategy<Value = (ArbTriples, ArbDeltaOps)> {
            (
                proptest::collection::vec((0u8..6, 0u8..3, 0u8..6), 0..25),
                proptest::collection::vec((0u8..6, 0u8..3, 0u8..6, proptest::bool::ANY), 0..12),
            )
        }

        /// A join, a lone atom, a repeated variable (`?x p0 ?x`), a
        /// constant subject and filters: every way a seed atom binds. The
        /// last query's branches hold the same atoms in opposite orders,
        /// so their terms share a planned prefix whose atoms probe
        /// different graphs.
        const QUERIES: [&str; 3] = [
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE \
             { { ?x ex:p0 ?y . ?y ex:p1 ?z } UNION { ?x ex:p2 ?z } }",
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE \
             { { ?x ex:p0 ?x . ?x ex:p1 ?z } UNION { ex:n0 ex:p1 ?x . ?x ex:p2 ?z } \
               UNION { ?x ex:p0 ?y . ?y ex:p0 ?z . ?z ex:p1 ?x } \
               FILTER (?x != ex:n1) FILTER (?z < ex:n5) }",
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE \
             { { ?x ex:p0 ?y . ?y ex:p1 ?z } UNION { ?y ex:p1 ?z . ?x ex:p0 ?y } }",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Delta evaluation applied to the old bag always equals
            /// re-evaluation from scratch on the new graph — joins,
            /// unions, self-joins, repeated variables, constants and
            /// filters included.
            #[test]
            fn delta_equals_rescratch((triples, raw_delta) in arb_graph_and_delta()) {
                let mut dict = Dictionary::new();
                let id = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
                let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
                let mut old = Graph::new();
                for (s, p, o) in &triples {
                    let t = Triple::new(id(&mut dict, *s), prop(&mut dict, *p), id(&mut dict, *o));
                    old.insert(t);
                }
                // Build a consolidated, contract-respecting delta.
                let mut new = old.clone();
                let mut delta: Vec<(Triple, i64)> = Vec::new();
                for (s, p, o, add) in &raw_delta {
                    let t = Triple::new(id(&mut dict, *s), prop(&mut dict, *p), id(&mut dict, *o));
                    if *add {
                        if new.insert(t) {
                            delta.push((t, 1));
                        }
                    } else if new.remove(&t) {
                        delta.push((t, -1));
                    }
                }
                // Net per triple (a later delete can cancel an earlier insert).
                let mut net: FxHashMap<Triple, i64> = FxHashMap::default();
                for (t, s) in delta { *net.entry(t).or_insert(0) += s; }
                let delta: Vec<(Triple, i64)> = net.into_iter().filter(|(_, s)| *s != 0).collect();

                for text in QUERIES {
                    let q = parse_query(text, &mut dict).unwrap();
                    let expect = scratch_counts(&q, &new, &dict);
                    prop_assert_eq!(maintained(&q, &dict, &old, &delta), expect);
                }
            }
        }
    }
}
