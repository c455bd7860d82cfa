//! Cross-crate property tests: the system-level invariants, randomised.

use proptest::prelude::*;
use rdf_model::{Dictionary, Graph, Triple, Vocab};
use rustc_hash::FxHashSet;
use sparql::evaluate;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};

/// Random database-fragment graphs plus a random type/property query mix.
#[derive(Debug, Clone)]
struct Scenario {
    sub_class: Vec<(u8, u8)>,
    sub_prop: Vec<(u8, u8)>,
    domain: Vec<(u8, u8)>,
    range: Vec<(u8, u8)>,
    facts: Vec<(u8, u8, u8)>,
    types: Vec<(u8, u8)>,
    query_class: u8,
    query_prop: u8,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec((0u8..5, 0u8..5), 0..6),
        proptest::collection::vec((0u8..4, 0u8..4), 0..4),
        proptest::collection::vec((0u8..4, 0u8..5), 0..4),
        proptest::collection::vec((0u8..4, 0u8..5), 0..4),
        proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 0..20),
        proptest::collection::vec((0u8..8, 0u8..5), 0..10),
        0u8..5,
        0u8..4,
    )
        .prop_map(
            |(sub_class, sub_prop, domain, range, facts, types, query_class, query_prop)| {
                Scenario {
                    sub_class,
                    sub_prop,
                    domain,
                    range,
                    facts,
                    types,
                    query_class,
                    query_prop,
                }
            },
        )
}

fn build_graph(s: &Scenario) -> (Dictionary, Vocab, Graph) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every store configuration in `ReasoningConfig::ALL` returns the
    /// oracle's answer set — plain evaluation over `rdfs::saturate` — for
    /// both a type query and a property query, on random fragment graphs.
    #[test]
    fn strategies_agree(s in arb_scenario()) {
        let (mut dict, vocab, g) = build_graph(&s);
        let type_q = format!(
            "SELECT DISTINCT ?x WHERE {{ ?x <{}> <http://ex/C{}> }}",
            rdf_model::vocab::RDF_TYPE,
            s.query_class
        );
        let prop_q = format!(
            "SELECT DISTINCT ?x ?y WHERE {{ ?x <http://ex/p{}> ?y }}",
            s.query_prop
        );
        type AnswerSet = FxHashSet<Vec<rdf_model::TermId>>;
        let mut reference: Option<(AnswerSet, AnswerSet)> = None;
        for config in ReasoningConfig::ALL {
            let store = Store::from_parts(dict.clone(), vocab, g.clone(), config);
            let a = store.answer_sparql(&type_q).unwrap().as_set();
            let b = store.answer_sparql(&prop_q).unwrap().as_set();
            match &reference {
                None => reference = Some((a, b)),
                Some((ra, rb)) => {
                    prop_assert_eq!(&a, ra, "{} type query", config.name());
                    prop_assert_eq!(&b, rb, "{} property query", config.name());
                }
            }
        }
        let (ra, rb) = reference.expect("ALL is non-empty");
        let sat = rdfs::saturate(&g, &vocab).graph;
        for (text, want) in [(&type_q, &ra), (&prop_q, &rb)] {
            let q = sparql::parse_query(text, &mut dict).unwrap();
            prop_assert_eq!(&evaluate(&sat, &q).as_set(), want, "oracle");
        }
    }

    /// Plain evaluation is always a subset of reasoned answering
    /// (soundness of the explicit graph, completeness of reasoning).
    #[test]
    fn reasoning_only_adds_answers(s in arb_scenario()) {
        let (dict, vocab, g) = build_graph(&s);
        let q = format!(
            "SELECT DISTINCT ?x WHERE {{ ?x <{}> <http://ex/C{}> }}",
            rdf_model::vocab::RDF_TYPE,
            s.query_class
        );
        let reasoned = Store::from_parts(dict, vocab, g.clone(), ReasoningConfig::Reformulation);
        let parsed = reasoned.prepare(&q).unwrap();
        let incomplete = evaluate(&g, &parsed).as_set();
        let complete = reasoned.answer(&parsed).unwrap().as_set();
        prop_assert!(incomplete.is_subset(&complete));
    }

    /// Store-level updates keep a saturated store consistent with a
    /// from-scratch saturation of the same base graph.
    #[test]
    fn live_updates_match_rebuild(s in arb_scenario(), drops in proptest::collection::vec(0usize..30, 0..6)) {
        let (dict, vocab, g) = build_graph(&s);
        let all: Vec<Triple> = g.iter().collect();
        let sat = ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting);
        let mut live = Store::from_parts(dict, vocab, g.clone(), sat);
        let mut base = g.clone();
        for &i in &drops {
            if let Some(t) = all.get(i % all.len().max(1)) {
                live.delete(t);
                base.remove(t);
            }
        }
        let rebuilt = rdfs::saturate(&base, &vocab).graph;
        let q = format!(
            "SELECT DISTINCT ?x WHERE {{ ?x <{}> <http://ex/C{}> }}",
            rdf_model::vocab::RDF_TYPE,
            s.query_class
        );
        prop_assert_eq!(
            live.answer_sparql(&q).unwrap().as_set(),
            evaluate(&rebuilt, &live.prepare(&q).unwrap()).as_set()
        );
    }
}
