//! Backward chaining: run-time reasoning during join evaluation.
//!
//! "AllegroGraph's RDFS++ performs run-time reasoning, sometimes
//! incomplete, based on backward chaining. […] It is not complete, but it
//! has predictable and fast performance." (§II-C). This module reproduces
//! that technique class: instead of expanding the *query* into a union
//! (reformulation) or the *data* into `G∞` (saturation), each triple
//! pattern is matched against the **virtual** entailed triples by probing
//! the explicit indexes once per schema-implied alternative:
//!
//! * `?x rdf:type C` matches explicit `(x, type, C')` for `C' ⊑* C`, plus
//!   `(x, p, _)` for properties with domain `C`, plus `(_, p, x)` for
//!   properties with range `C`;
//! * `?x P ?y` matches explicit `(x, P', y)` for every `P' ⊑* P`.
//!
//! Like RDFS++, patterns outside this shape — a variable property, a
//! variable class, or a schema property — fall back to *explicit-only*
//! matching, making the strategy deliberately incomplete on them (the
//! incompleteness the paper attributes to this class of systems). On the
//! reformulation dialect it is complete, which the equivalence tests
//! check.

use rdf_model::{Graph, Pattern, TermId, Triple, Vocab};
use rdfs::Schema;
use rustc_hash::FxHashSet;
use smallvec::SmallVec;
use sparql::plan::plan_bgp;
use sparql::{Bgp, QTerm, Query, Rows, Solutions, TriplePattern, Variable};

/// Calls `f` for every *entailed* triple matching `probe`, where `probe`
/// has the shape of `tp` with bound values substituted.
///
/// Emitted triples are virtual: the same entailed triple may be emitted
/// once per distinct derivation, so callers needing set semantics must
/// dedup (the evaluator's DISTINCT handling does).
fn for_each_entailed(
    g: &Graph,
    schema: &Schema,
    vocab: &Vocab,
    tp: &TriplePattern,
    probe: &Pattern,
    f: &mut dyn FnMut(Triple),
) {
    let p_const = tp.p.as_const();
    match p_const {
        Some(p) if p == vocab.rdf_type => {
            // Class must be a constant for entailment expansion.
            let Some(class) = tp.o.as_const() else {
                g.for_each_match(probe, &mut *f);
                return;
            };
            // 1. explicit + subclass typings
            let mut classes: Vec<TermId> = Vec::with_capacity(1 + schema.sub_classes(class).len());
            classes.push(class);
            classes.extend(schema.sub_classes(class).iter().copied());
            for c in classes {
                g.for_each_match(
                    &Pattern::new(probe.s, Some(vocab.rdf_type), Some(c)),
                    &mut |t: Triple| {
                        f(Triple::new(t.s, vocab.rdf_type, class));
                    },
                );
            }
            // 2. subjects of domain properties
            for &p in schema.properties_with_domain(class) {
                g.for_each_match(&Pattern::new(probe.s, Some(p), None), &mut |t: Triple| {
                    f(Triple::new(t.s, vocab.rdf_type, class));
                });
            }
            // 3. objects of range properties
            for &p in schema.properties_with_range(class) {
                g.for_each_match(&Pattern::new(None, Some(p), probe.s), &mut |t: Triple| {
                    f(Triple::new(t.o, vocab.rdf_type, class));
                });
            }
        }
        Some(p) if !vocab.is_schema_property(p) => {
            // explicit + subproperty edges, reported under `p`
            g.for_each_match(probe, &mut *f);
            for &sub in schema.sub_properties(p) {
                g.for_each_match(
                    &Pattern::new(probe.s, Some(sub), probe.o),
                    &mut |t: Triple| {
                        f(Triple::new(t.s, p, t.o));
                    },
                );
            }
        }
        _ => {
            // Variable property or schema property: explicit only
            // (RDFS++-style incompleteness, see module docs).
            g.for_each_match(probe, &mut *f);
        }
    }
}

#[inline]
fn resolve(qt: QTerm, binding: &[Option<TermId>]) -> Option<TermId> {
    match qt {
        QTerm::Const(c) => Some(c),
        QTerm::Var(v) => binding[v.index()],
    }
}

#[inline]
fn bind_triple(
    tp: &TriplePattern,
    t: &Triple,
    binding: &mut [Option<TermId>],
    touched: &mut SmallVec<[Variable; 3]>,
) -> bool {
    for (qt, value) in [(tp.s, t.s), (tp.p, t.p), (tp.o, t.o)] {
        if let QTerm::Var(v) = qt {
            match binding[v.index()] {
                Some(bound) => {
                    if bound != value {
                        return false;
                    }
                }
                None => {
                    binding[v.index()] = Some(value);
                    touched.push(v);
                }
            }
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn eval_rec(
    g: &Graph,
    schema: &Schema,
    vocab: &Vocab,
    bgp: &Bgp,
    order: &[usize],
    depth: usize,
    binding: &mut Vec<Option<TermId>>,
    emit: &mut dyn FnMut(&[Option<TermId>]),
) {
    if depth == order.len() {
        emit(binding);
        return;
    }
    let tp = &bgp.patterns[order[depth]];
    let probe = Pattern::new(
        resolve(tp.s, binding),
        resolve(tp.p, binding),
        resolve(tp.o, binding),
    );
    // Entailed matches can repeat (multiple derivations); dedup per level so
    // sibling bindings are not enumerated twice.
    let mut seen: FxHashSet<Triple> = FxHashSet::default();
    let mut matches: Vec<Triple> = Vec::new();
    for_each_entailed(g, schema, vocab, tp, &probe, &mut |t: Triple| {
        if seen.insert(t) {
            matches.push(t);
        }
    });
    for t in matches {
        let mut touched: SmallVec<[Variable; 3]> = SmallVec::new();
        if bind_triple(tp, &t, binding, &mut touched) {
            eval_rec(g, schema, vocab, bgp, order, depth + 1, binding, emit);
        }
        for v in touched {
            binding[v.index()] = None;
        }
    }
}

/// Evaluates `q` over the explicit graph with per-atom backward chaining
/// against `schema`. Complete on the reformulation dialect; explicit-only
/// on variable-property / variable-class / schema-property atoms.
pub fn evaluate_backward(g: &Graph, schema: &Schema, vocab: &Vocab, q: &Query) -> Solutions {
    let mut rows = Rows::new(q.projection.len());
    let mut seen: FxHashSet<Vec<TermId>> = FxHashSet::default();
    for bgp in &q.bgps {
        let vars = bgp.variables();
        if !q.projection.iter().all(|v| vars.contains(v)) {
            continue;
        }
        let plan = plan_bgp(g, bgp);
        let mut binding: Vec<Option<TermId>> = vec![None; q.var_names.len()];
        eval_rec(
            g,
            schema,
            vocab,
            bgp,
            &plan.order,
            0,
            &mut binding,
            &mut |b| {
                // NOT EXISTS probes the explicit graph only — the same
                // RDFS++-style incompleteness as the rest of this strategy.
                if q.not_exists
                    .iter()
                    .any(|neg| sparql::bgp_has_match(g, neg, b))
                {
                    return;
                }
                let row: Vec<TermId> = q
                    .projection
                    .iter()
                    .map(|v| b[v.index()].expect("projected var bound"))
                    .collect();
                if !q.distinct || seen.insert(row.clone()) {
                    rows.push(&row);
                }
            },
        );
    }
    let var_names = q
        .projection
        .iter()
        .map(|&v| q.var_name(v).to_owned())
        .collect();
    Solutions { var_names, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_io::parse_turtle;
    use rdf_model::Dictionary;
    use rdfs::saturate;
    use sparql::{evaluate, parse_query};

    const UNIVERSITY: &str = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:teaches rdfs:subPropertyOf ex:worksFor .
        ex:worksFor rdfs:domain ex:Employee .
        ex:worksFor rdfs:range ex:Org .
        ex:Employee rdfs:subClassOf ex:Person .
        ex:Professor rdfs:subClassOf ex:Employee .
        ex:bob ex:teaches ex:uni1 .
        ex:carol ex:worksFor ex:uni2 .
        ex:dan a ex:Professor .
        ex:eve a ex:Person .
    "#;

    fn check_complete(data: &str, query: &str) {
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        let mut g = Graph::new();
        parse_turtle(data, &mut dict, &mut g).unwrap();
        let mut q = parse_query(query, &mut dict).unwrap();
        q.distinct = true;
        let schema = Schema::extract(&g, &vocab);
        let got = evaluate_backward(&g, &schema, &vocab, &q).as_set();
        let want = evaluate(&saturate(&g, &vocab).graph, &q).as_set();
        assert_eq!(got, want, "backward chaining incomplete on {query}");
    }

    #[test]
    fn complete_on_type_queries() {
        check_complete(
            UNIVERSITY,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person }",
        );
        check_complete(
            UNIVERSITY,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Employee }",
        );
        check_complete(
            UNIVERSITY,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Org }",
        );
    }

    #[test]
    fn complete_on_property_queries() {
        check_complete(
            UNIVERSITY,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:worksFor ?y }",
        );
    }

    #[test]
    fn complete_on_joins() {
        check_complete(
            UNIVERSITY,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x a ex:Employee . ?x ex:worksFor ?y . ?y a ex:Org }",
        );
    }

    #[test]
    fn subproperty_matches_reported_under_queried_property() {
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        let mut g = Graph::new();
        parse_turtle(UNIVERSITY, &mut dict, &mut g).unwrap();
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:worksFor ex:uni1 }",
            &mut dict,
        )
        .unwrap();
        let schema = Schema::extract(&g, &vocab);
        let sols = evaluate_backward(&g, &schema, &vocab, &q);
        assert_eq!(sols.len(), 1, "bob teaches uni1 ⊢ bob worksFor uni1");
    }

    #[test]
    fn incomplete_on_variable_property_like_rdfspp() {
        // "It is not complete" — variable-property atoms see explicit
        // triples only.
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        let mut g = Graph::new();
        parse_turtle(UNIVERSITY, &mut dict, &mut g).unwrap();
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?p WHERE { ex:bob ?p ex:uni1 }",
            &mut dict,
        )
        .unwrap();
        let schema = Schema::extract(&g, &vocab);
        let backward = evaluate_backward(&g, &schema, &vocab, &q);
        assert_eq!(backward.len(), 1, "explicit teaches only");
        let complete = evaluate(&saturate(&g, &vocab).graph, &q);
        assert_eq!(complete.len(), 2, "teaches + derived worksFor");
    }

    #[test]
    fn distinct_semantics_dedups_multi_derivations() {
        // dan is an Employee via subclass; if he also works somewhere, the
        // two derivations must not duplicate the answer under DISTINCT.
        let data = format!("{UNIVERSITY}\nex:dan ex:worksFor ex:uni1 .");
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        let mut g = Graph::new();
        parse_turtle(&data, &mut dict, &mut g).unwrap();
        let mut q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Employee }",
            &mut dict,
        )
        .unwrap();
        q.distinct = true;
        let schema = Schema::extract(&g, &vocab);
        let sols = evaluate_backward(&g, &schema, &vocab, &q);
        let dan = dict.get_iri_id("http://ex/dan").unwrap();
        assert_eq!(sols.rows.iter().filter(|r| r[0] == dan).count(), 1);
    }
}
