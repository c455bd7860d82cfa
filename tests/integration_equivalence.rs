//! Strategy equivalence on the LUBM workload: every store configuration
//! must return the same answer sets on the reformulation dialect —
//! `q(G∞) = q_ref(G) = q_int(G)` — which is the semantic backbone of the paper's performance comparison (the
//! techniques compute the *same* answers at different costs).
//!
//! The differential half of the file locks the union-aware evaluator AND
//! the interval (LiteMat-style) evaluator to that contract on *random*
//! schemas (cyclic and multi-parent DAGs included), graphs (empty ones
//! included) and queries: `q_ref(G)` under [`sparql::evaluate_union`] and
//! `q_int(G)` under [`sparql::evaluate_interval`] must equal `q(G∞)` —
//! set-equal under `DISTINCT`; under bag semantics both union evaluators
//! must match (the interval rewriter's deduplicated branch list makes
//! raw-union multiplicity parity intentionally out of scope).
//! `WEBREASON_PROPTEST_CASES` scales the case count (CI pins it for
//! reproducibility; generation is already deterministic per test name and
//! case index).

use proptest::prelude::*;
use rdf_model::{Dictionary, Graph, Triple, Vocab};
use rdfs::saturate;
use rustc_hash::FxHashSet;
use sparql::{evaluate, evaluate_interval, evaluate_union, parse_query};
use webreason_core::{ReasoningConfig, Store};
use workload::lubm::{generate, queries, LubmConfig};

#[test]
fn all_strategies_agree_on_lubm_q1_to_q10() {
    let mut ds = generate(&LubmConfig::tiny());
    let named = queries(&mut ds);

    // Reference answers: plain evaluation over a from-scratch saturation.
    let saturated = saturate(&ds.graph, &ds.vocab).graph;
    let reference: Vec<FxHashSet<Vec<rdf_model::TermId>>> = named
        .iter()
        .map(|nq| {
            let mut q = nq.query.clone();
            q.distinct = true;
            evaluate(&saturated, &q).as_set()
        })
        .collect();

    for config in ReasoningConfig::ALL {
        let store = Store::from_parts(ds.dict.clone(), ds.vocab, ds.graph.clone(), config);
        for (nq, want) in named.iter().zip(&reference) {
            let mut q = nq.query.clone();
            q.distinct = true;
            let got = store.answer(&q).unwrap().as_set();
            assert_eq!(
                &got,
                want,
                "{} disagrees on {} ({})",
                config.name(),
                nq.name,
                nq.description
            );
            assert!(!got.is_empty(), "{} is non-trivial", nq.name);
        }
    }
}

/// The read benchmark's B3 template on LUBM-1 under reformulation: the
/// union derives each (student, department) row through many branches,
/// and once `?x` and `?d` are bound the remaining atoms need one witness.
/// Without the witness cut the walk matched 39 016 triples for 7 500 rows
/// (38 996 under interval rewriting); with it, 15 660 (15 640).
#[test]
fn reformulated_b3_walks_one_witness_per_row() {
    use workload::lubm::{NS_DATA, NS_UB};
    let ds = generate(&LubmConfig::scaled(1));
    let text = format!(
        "PREFIX ub: <{NS_UB}>\nSELECT DISTINCT ?x ?d WHERE {{ ?x a ub:Student . \
         ?x ub:memberOf ?d . ?d ub:subOrganizationOf <{NS_DATA}u0> }}"
    );
    let sat = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Saturation(webreason_core::MaintenanceAlgorithm::Counting),
    );
    let want = sat.answer_sparql(&text).unwrap();
    for config in [ReasoningConfig::Reformulation, ReasoningConfig::Interval] {
        let store = Store::from_parts(ds.dict.clone(), ds.vocab, ds.graph.clone(), config);
        let got = store.answer_sparql(&text).unwrap();
        assert_eq!(got.as_set(), want.as_set(), "{}", config.name());
        let stats = store.last_eval_stats().expect("a rewriting ran");
        assert!(
            stats.matched <= 16_000,
            "{}: {} triples matched for {} rows",
            config.name(),
            stats.matched,
            got.len()
        );
    }
}

#[test]
fn plain_evaluation_misses_answers_on_lubm() {
    // The motivation for the whole paper: ignoring entailment loses answers.
    let mut ds = generate(&LubmConfig::tiny());
    let named = queries(&mut ds);
    let explicit = ds.graph.clone();
    let sat = Store::from_parts(
        ds.dict,
        ds.vocab,
        ds.graph,
        ReasoningConfig::Saturation(webreason_core::MaintenanceAlgorithm::Counting),
    );
    let mut lossy = 0;
    for nq in &named {
        let mut q = nq.query.clone();
        q.distinct = true;
        let incomplete = evaluate(&explicit, &q).len();
        let complete = sat.answer(&q).unwrap().len();
        assert!(incomplete <= complete, "{}", nq.name);
        if incomplete < complete {
            lossy += 1;
        }
    }
    assert!(
        lossy >= 6,
        "most LUBM queries need reasoning; only {lossy} did"
    );
}

// --- differential harness: union-aware evaluator vs saturation vs legacy ---

/// Random schema + instance data. Subclass/subproperty edges are drawn as
/// arbitrary pairs, so cycles (`C0 ⊑ C1 ⊑ C0`) and self-loops occur
/// naturally; every `vec` lower bound is 0, so empty graphs occur too.
#[derive(Debug, Clone)]
struct DiffScenario {
    sub_class: Vec<(u8, u8)>,
    sub_prop: Vec<(u8, u8)>,
    domain: Vec<(u8, u8)>,
    range: Vec<(u8, u8)>,
    facts: Vec<(u8, u8, u8)>,
    types: Vec<(u8, u8)>,
    query_class: u8,
    query_prop: u8,
    query_class2: u8,
    query_prop2: u8,
}

fn arb_diff_scenario() -> impl Strategy<Value = DiffScenario> {
    (
        proptest::collection::vec((0u8..5, 0u8..5), 0..8),
        proptest::collection::vec((0u8..4, 0u8..4), 0..5),
        proptest::collection::vec((0u8..4, 0u8..5), 0..4),
        proptest::collection::vec((0u8..4, 0u8..5), 0..4),
        proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 0..24),
        proptest::collection::vec((0u8..8, 0u8..5), 0..12),
        0u8..5,
        0u8..4,
        0u8..5,
        0u8..4,
    )
        .prop_map(
            |(
                sub_class,
                sub_prop,
                domain,
                range,
                facts,
                types,
                query_class,
                query_prop,
                query_class2,
                query_prop2,
            )| {
                DiffScenario {
                    sub_class,
                    sub_prop,
                    domain,
                    range,
                    facts,
                    types,
                    query_class,
                    query_prop,
                    query_class2,
                    query_prop2,
                }
            },
        )
}

fn build_diff_graph(s: &DiffScenario) -> (Dictionary, Vocab, Graph) {
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let class = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/C{i}"));
    let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
    let node = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
    let mut g = Graph::new();
    for &(a, b) in &s.sub_class {
        let t = Triple::new(class(&mut dict, a), vocab.sub_class_of, class(&mut dict, b));
        g.insert(t);
    }
    for &(a, b) in &s.sub_prop {
        let t = Triple::new(
            prop(&mut dict, a),
            vocab.sub_property_of,
            prop(&mut dict, b),
        );
        g.insert(t);
    }
    for &(p, c) in &s.domain {
        let t = Triple::new(prop(&mut dict, p), vocab.domain, class(&mut dict, c));
        g.insert(t);
    }
    for &(p, c) in &s.range {
        let t = Triple::new(prop(&mut dict, p), vocab.range, class(&mut dict, c));
        g.insert(t);
    }
    for &(a, p, b) in &s.facts {
        let t = Triple::new(node(&mut dict, a), prop(&mut dict, p), node(&mut dict, b));
        g.insert(t);
    }
    for &(a, c) in &s.types {
        let t = Triple::new(node(&mut dict, a), vocab.rdf_type, class(&mut dict, c));
        g.insert(t);
    }
    (dict, vocab, g)
}

/// Case-count knob: `WEBREASON_PROPTEST_CASES=200` for a deeper local
/// run; CI exports a fixed value so runs are comparable.
fn env_cases(default: u32) -> u32 {
    std::env::var("WEBREASON_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The differential check for one query text over one scenario graph:
/// reformulate (union and interval), then compare every evaluation route —
/// the three-strategy oracle `q_int(G) = q_ref(G) = q(G∞)`.
fn assert_routes_agree(
    dict: &mut Dictionary,
    vocab: &Vocab,
    g: &Graph,
    sat_graph: &Graph,
    query_text: &str,
) -> Result<(), String> {
    let q = parse_query(query_text, dict).map_err(|e| format!("{query_text}: {e}"))?;
    let schema = rdfs::Schema::extract(g, vocab);
    let r =
        reformulation::reformulate(&q, &schema, vocab).map_err(|e| format!("{query_text}: {e}"))?;
    // The interval rewriter accepts exactly the reformulation dialect:
    // whenever `reformulate` succeeds, so must `reformulate_intervals`.
    let idict = std::sync::Arc::new(schema.interval_dict());
    let iq = reformulation::reformulate_intervals(&q, &schema, vocab, idict)
        .map_err(|e| format!("{query_text}: interval rewrite refused: {e}"))?;

    // Answer-set semantics: q(G∞) is the ground truth.
    let reference = evaluate(sat_graph, &q).as_set();
    let legacy = evaluate(g, &r.query).as_set();
    if legacy != reference {
        return Err(format!("legacy q_ref(G) != q(G∞) on {query_text}"));
    }
    let (sols, stats) = evaluate_union(g, &r.query);
    if sols.as_set() != reference {
        return Err(format!("union eval != q(G∞) on {query_text}"));
    }
    if stats.rows != sols.len() {
        return Err(format!("stats.rows mismatch on {query_text}"));
    }
    let (isols, istats) = evaluate_interval(g, &iq);
    if isols.as_set() != reference {
        return Err(format!("interval eval != q(G∞) on {query_text}"));
    }
    if istats.rows != isols.len() {
        return Err(format!("interval stats.rows mismatch on {query_text}"));
    }

    // Bag semantics: both evaluators of q_ref must agree on multiplicities.
    let mut bag = r.query.clone();
    bag.distinct = false;
    let (bag_sols, bag_stats) = evaluate_union(g, &bag);
    if bag_sols.sorted_rows() != evaluate(g, &bag).sorted_rows() {
        return Err(format!("union eval bag != legacy bag on {query_text}"));
    }
    // The bag walk takes no witness cut: its first occurrences are the
    // order a `DISTINCT` answer must keep, and it never matches fewer.
    if first_seen(&bag_sols) != sols.rows.to_vecs() {
        return Err(format!(
            "union eval DISTINCT order != bag order on {query_text}"
        ));
    }
    if stats.matched > bag_stats.matched {
        return Err(format!(
            "the DISTINCT walk matched more than the bag walk on {query_text}"
        ));
    }
    let mut ibag = iq.clone();
    ibag.query.distinct = false;
    let (ibag_sols, _) = evaluate_interval(g, &ibag);
    if first_seen(&ibag_sols) != isols.rows.to_vecs() {
        return Err(format!(
            "interval eval DISTINCT order != bag order on {query_text}"
        ));
    }
    Ok(())
}

/// The rows of `sols` without repeats, each where it first occurs.
fn first_seen(sols: &sparql::Solutions) -> Vec<Vec<rdf_model::TermId>> {
    let mut seen = FxHashSet::default();
    sols.rows
        .to_vecs()
        .into_iter()
        .filter(|row| seen.insert(row.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_cases(32)))]

    /// On random graphs, schemas (cyclic included) and queries, the
    /// union-aware evaluator matches `q(G∞)` and the legacy per-branch
    /// evaluator, under both set and bag semantics.
    /// The two-atom shapes are the ones where one atom can entail the
    /// other (range, domain, subclass, subproperty), so the interval
    /// rewriter's entailed-atom pass is exercised on random schemas.
    #[test]
    fn union_evaluator_is_differentially_equivalent(s in arb_diff_scenario()) {
        let (mut dict, vocab, g) = build_diff_graph(&s);
        let sat = saturate(&g, &vocab);
        let ty = rdf_model::vocab::RDF_TYPE;
        let (c, c2, p, p2) = (s.query_class, s.query_class2, s.query_prop, s.query_prop2);
        let queries = [
            format!("SELECT DISTINCT ?x WHERE {{ ?x <{ty}> <http://ex/C{c}> }}"),
            format!("SELECT DISTINCT ?x ?y WHERE {{ ?x <http://ex/p{p}> ?y }}"),
            format!(
                "SELECT DISTINCT ?x WHERE {{ ?x <http://ex/p{p}> ?y . ?y <{ty}> <http://ex/C{c}> }}"
            ),
            format!(
                "SELECT DISTINCT ?x ?y WHERE {{ ?x <http://ex/p{p}> ?y . ?x <{ty}> <http://ex/C{c}> }}"
            ),
            format!(
                "SELECT DISTINCT ?x WHERE {{ ?x <{ty}> <http://ex/C{c}> . ?x <{ty}> <http://ex/C{c2}> }}"
            ),
            format!(
                "SELECT DISTINCT ?x ?y WHERE {{ ?x <http://ex/p{p}> ?y . ?x <http://ex/p{p2}> ?y }}"
            ),
            // Variables left unbound once the answer row is: the witness cut.
            format!(
                "SELECT DISTINCT ?x WHERE {{ ?x <http://ex/p{p}> ?y . ?y <http://ex/p{p2}> ?z }}"
            ),
            format!(
                "SELECT DISTINCT ?x WHERE {{ ?x <{ty}> <http://ex/C{c}> . ?x <http://ex/p{p}> ?y . \
                 ?y <{ty}> <http://ex/C{c2}> }}"
            ),
        ];
        for query_text in &queries {
            if let Err(msg) =
                assert_routes_agree(&mut dict, &vocab, &g, &sat.graph, query_text)
            {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

#[test]
fn union_evaluator_handles_empty_graph() {
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let g = Graph::new();
    let sat = saturate(&g, &vocab);
    let q = format!(
        "SELECT DISTINCT ?x WHERE {{ ?x <{}> <http://ex/C0> }}",
        rdf_model::vocab::RDF_TYPE
    );
    assert_routes_agree(&mut dict, &vocab, &g, &sat.graph, &q).unwrap();
}

#[test]
fn union_evaluator_handles_cyclic_schema() {
    // C0 ⊑ C1 ⊑ C2 ⊑ C0 and p0 ⊑ p1 ⊑ p0: every class is equivalent to
    // every other, so a query on any of them returns all typed nodes, and
    // reformulation must terminate despite the cycles.
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let class = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/C{i}"));
    let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
    let node = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
    let mut g = Graph::new();
    for (a, b) in [(0u8, 1u8), (1, 2), (2, 0)] {
        let t = Triple::new(class(&mut dict, a), vocab.sub_class_of, class(&mut dict, b));
        g.insert(t);
    }
    for (a, b) in [(0u8, 1u8), (1, 0)] {
        let t = Triple::new(
            prop(&mut dict, a),
            vocab.sub_property_of,
            prop(&mut dict, b),
        );
        g.insert(t);
    }
    let n0 = node(&mut dict, 0);
    let n1 = node(&mut dict, 1);
    let c0 = class(&mut dict, 0);
    let p1 = prop(&mut dict, 1);
    g.insert(Triple::new(n0, vocab.rdf_type, c0));
    g.insert(Triple::new(n0, p1, n1));
    let sat = saturate(&g, &vocab);

    for i in 0..3u8 {
        let q = format!(
            "SELECT DISTINCT ?x WHERE {{ ?x <{}> <http://ex/C{i}> }}",
            rdf_model::vocab::RDF_TYPE
        );
        assert_routes_agree(&mut dict, &vocab, &g, &sat.graph, &q).unwrap();
        // The cycle makes C0 ⊑ Ci for every i: n0 is an answer everywhere.
        let parsed = parse_query(&q, &mut dict).unwrap();
        assert_eq!(evaluate(&sat.graph, &parsed).len(), 1, "C{i}");
    }
    for i in 0..2u8 {
        let q = format!("SELECT DISTINCT ?x ?y WHERE {{ ?x <http://ex/p{i}> ?y }}");
        assert_routes_agree(&mut dict, &vocab, &g, &sat.graph, &q).unwrap();
    }
    // Each of p0, p1 entails the other: the interval rewriter drops one
    // and must keep exactly the other.
    let q = "SELECT DISTINCT ?x ?y WHERE { ?x <http://ex/p0> ?y . ?x <http://ex/p1> ?y }";
    assert_routes_agree(&mut dict, &vocab, &g, &sat.graph, q).unwrap();
    let parsed = parse_query(q, &mut dict).unwrap();
    let schema = rdfs::Schema::extract(&g, &vocab);
    let idict = std::sync::Arc::new(schema.interval_dict());
    let iq = reformulation::reformulate_intervals(&parsed, &schema, &vocab, idict).unwrap();
    assert_eq!(iq.atoms_entailed, 1);
    assert_eq!(iq.branches.len(), 1);
    assert_eq!(iq.branches[0].atoms.len(), 1);
    assert_eq!(evaluate(&sat.graph, &parsed).len(), 1, "(n0, n1)");
}

/// A ground query projects nothing: its answer rows have width 0, so only
/// the row count says how many there are. Every strategy, under bag and
/// `DISTINCT` semantics, must count exactly what
/// `sparql::evaluate` counts on the graph that strategy answers over
/// (`q(G∞)` for saturation, `q_ref(G)` for the two rewritings) — for the
/// rows themselves and for `COUNT`.
#[test]
fn ground_queries_count_zero_width_rows() {
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let iri = |d: &mut Dictionary, s: &str| d.encode_iri(&format!("http://ex/{s}"));
    let (a, b, p, q) = (
        iri(&mut dict, "a"),
        iri(&mut dict, "b"),
        iri(&mut dict, "p"),
        iri(&mut dict, "q"),
    );
    iri(&mut dict, "c");
    // `q ⊑ p` and both `a p b` and `a q b` asserted: `a p b` is found by
    // two union branches under reformulation, and is one triple of G∞.
    let mut g = Graph::new();
    g.insert(Triple::new(q, vocab.sub_property_of, p));
    g.insert(Triple::new(a, p, b));
    g.insert(Triple::new(a, q, b));
    let sat = saturate(&g, &vocab).graph;
    let schema = rdfs::Schema::extract(&g, &vocab);

    let count = |sols: &sparql::Solutions, d: &Dictionary| -> String {
        let term = d.decode(sols.rows[0][0]).expect("COUNT interns its result");
        term.as_literal().expect("a literal").lexical().to_owned()
    };
    let mut checked = 0;
    for object in ["b", "c"] {
        let atom = format!("<http://ex/a> <http://ex/p> <http://ex/{object}>");
        for text in [
            format!("SELECT * WHERE {{ {atom} }}"),
            format!("SELECT DISTINCT * WHERE {{ {atom} }}"),
            format!("SELECT (COUNT(*) AS ?n) WHERE {{ {atom} }}"),
            format!("SELECT (COUNT(DISTINCT *) AS ?n) WHERE {{ {atom} }}"),
        ] {
            let mut reference_dict = dict.clone();
            let query = parse_query(&text, &mut reference_dict).unwrap();
            assert!(query.projection.is_empty(), "{text} is ground");
            let q_ref = reformulation::reformulate(&query, &schema, &vocab)
                .unwrap()
                .query;
            let mut expect = |over: &Graph, q: &sparql::Query| {
                let sols = sparql::finalize(evaluate(over, q), &query, &mut reference_dict);
                let n = query
                    .aggregate
                    .is_some()
                    .then(|| count(&sols, &reference_dict));
                (sols.len(), n)
            };
            let saturated = expect(&sat, &query);
            let rewritten = expect(&g, &q_ref);
            for config in ReasoningConfig::ALL {
                let want = match config {
                    ReasoningConfig::Saturation(_) => &saturated,
                    _ => &rewritten,
                };
                let store = Store::from_parts(dict.clone(), vocab, g.clone(), config);
                let sols = store.answer_sparql(&text).unwrap();
                let n = query
                    .aggregate
                    .is_some()
                    .then(|| count(&sols, &store.dictionary()));
                let what = format!("{text} under {}", config.name());
                assert_eq!(sols.rows.width(), usize::from(n.is_some()), "{what}");
                assert_eq!((sols.len(), n), *want, "{what}");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 4 * ReasoningConfig::ALL.len());
    // The rewritings answer with set semantics; the executor's bag
    // semantics on zero-width rows shows on the raw union, where `a p b`
    // is found by both branches.
    let text = "SELECT * WHERE { <http://ex/a> <http://ex/p> <http://ex/b> }";
    let mut reference_dict = dict.clone();
    let query = parse_query(text, &mut reference_dict).unwrap();
    let mut bag = reformulation::reformulate(&query, &schema, &vocab)
        .unwrap()
        .query;
    bag.distinct = false;
    assert_eq!(bag.bgps.len(), 2);
    assert_eq!(evaluate(&g, &bag).len(), 2);
    let (sols, stats) = evaluate_union(&g, &bag);
    assert_eq!((sols.len(), stats.rows), (2, 2));
}

#[test]
fn strategies_agree_after_updates() {
    let mut ds = generate(&LubmConfig::tiny());
    let named = queries(&mut ds);
    let q5 = named
        .iter()
        .find(|nq| nq.name == "Q5")
        .unwrap()
        .query
        .clone();

    // Pick an update: a new head of department d1 (headOf ⊑ worksFor ⊑ memberOf).
    let new_person = ds
        .dict
        .encode_iri("http://webreason.example/data/u0/d0/newhire");
    let head_of = ds
        .dict
        .encode_iri("http://webreason.example/univ-bench#headOf");
    let dept = ds.dict.encode_iri("http://webreason.example/data/u0/d0");
    let t = rdf_model::Triple::new(new_person, head_of, dept);

    let mut results = Vec::new();
    for config in ReasoningConfig::ALL {
        let mut store = Store::from_parts(ds.dict.clone(), ds.vocab, ds.graph.clone(), config);
        let mut q = q5.clone();
        q.distinct = true;
        let before = store.answer(&q).unwrap().len();
        store.insert(t);
        let after = store.answer(&q).unwrap().as_set();
        assert_eq!(
            after.len(),
            before + 1,
            "{}: new member visible",
            config.name()
        );
        store.delete(&t);
        let back = store.answer(&q).unwrap().as_set();
        results.push((config.name(), after, back));
    }

    // The oracle, on the graph with and without the update.
    let mut q = q5;
    q.distinct = true;
    let mut updated = ds.graph.clone();
    updated.insert(t);
    let want_after = evaluate(&saturate(&updated, &ds.vocab).graph, &q).as_set();
    let want_back = evaluate(&saturate(&ds.graph, &ds.vocab).graph, &q).as_set();
    for (name, after, back) in &results {
        assert_eq!(after, &want_after, "{name} diverged after the insert");
        assert_eq!(back, &want_back, "{name} diverged after update round-trip");
    }
}
