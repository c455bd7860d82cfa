//! Update-stream scenarios: the dynamic-graph setting of the paper's §I,
//! where "typical Semantic Web scenarios involve integrating data from
//! several RDF repositories … authored independently" and both instance
//! data and schemas change.

use rdf_model::Triple;
use rdfs::incremental::{
    CountingMaintainer, DRedMaintainer, Maintainer, RecomputeMaintainer, UpdateKind,
};
use rdfs::saturate;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};
use workload::lubm::{generate, LubmConfig, UbVocab};
use workload::synth::{generate as synth_generate, SynthConfig};

/// Simulates integrating a second endpoint's schema into a running store:
/// new constraints arrive *after* the instance data (the scenario that
/// makes compute-everything-up-front infeasible per §I).
#[test]
fn late_arriving_schema_from_second_endpoint() {
    for config in ReasoningConfig::ALL {
        let mut store = Store::new(config);
        // Endpoint A ships facts with its own vocabulary…
        store
            .load_turtle(
                r#"
                @prefix a: <http://endpointA.example/> .
                a:r1 a:locatedIn a:paris .
                a:r2 a:locatedIn a:lyon .
            "#,
            )
            .unwrap();
        let q = "PREFIX b: <http://endpointB.example/> SELECT ?x WHERE { ?x a b:Place }";
        assert_eq!(store.answer_sparql(q).unwrap().len(), 0);
        // …endpoint B later contributes constraints mapping A's vocabulary.
        store
            .load_turtle(
                r#"
                @prefix a: <http://endpointA.example/> .
                @prefix b: <http://endpointB.example/> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                a:locatedIn rdfs:range b:Place .
            "#,
            )
            .unwrap();
        assert_eq!(
            store.answer_sparql(q).unwrap().len(),
            2,
            "{}",
            config.name()
        );
    }
}

/// A long random-ish update stream over LUBM data: maintained saturation
/// must equal recomputation at checkpoints.
#[test]
fn lubm_update_stream_checkpoints() {
    let ds = generate(&LubmConfig::tiny());
    let mut dict = ds.dict.clone();
    let ub = UbVocab::intern(&mut dict);
    let vocab = ds.vocab;

    // Build an update stream: delete some existing triples, add new ones.
    let existing: Vec<Triple> = ds.graph.iter().take(40).collect();
    let new_triples: Vec<Triple> = (0..20)
        .map(|i| {
            let s = dict.encode_iri(&format!("http://webreason.example/data/new{i}"));
            let dept = dict.encode_iri("http://webreason.example/data/u0/d1");
            Triple::new(
                s,
                if i % 2 == 0 {
                    ub.member_of
                } else {
                    ub.takes_course
                },
                dept,
            )
        })
        .collect();
    // plus a schema change: new class + subclass edge
    let special = dict.encode_iri("http://webreason.example/univ-bench#VisitingProfessor");
    let schema_edge = Triple::new(special, vocab.sub_class_of, ub.professor);

    let maintainers: [Box<dyn Maintainer>; 2] = [
        Box::new(DRedMaintainer::new(ds.graph.clone(), vocab)),
        Box::new(CountingMaintainer::new(ds.graph.clone(), vocab)),
    ];
    for mut m in maintainers {
        let mut base = ds.graph.clone();
        let mut step = 0usize;
        let checkpoint = |m: &dyn Maintainer, base: &rdf_model::Graph, step: usize| {
            let expect = saturate(base, &vocab).graph;
            assert_eq!(
                m.saturated(),
                &expect,
                "{} diverged at step {step}",
                m.name()
            );
        };
        for t in &existing {
            base.remove(t);
            m.delete(t);
            step += 1;
            if step.is_multiple_of(10) {
                checkpoint(m.as_ref(), &base, step);
            }
        }
        for &t in &new_triples {
            base.insert(t);
            m.insert(t);
        }
        checkpoint(m.as_ref(), &base, step);
        base.insert(schema_edge);
        m.insert(schema_edge);
        checkpoint(m.as_ref(), &base, step + 1);
        base.remove(&schema_edge);
        m.delete(&schema_edge);
        checkpoint(m.as_ref(), &base, step + 2);
    }
}

/// Update kinds are classified correctly through the store API.
#[test]
fn update_kind_classification() {
    let mut store = Store::new(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
    store
        .load_turtle("@prefix ex: <http://ex/> .\nex:a ex:p ex:b .")
        .unwrap();
    let mut dict = store.dictionary().clone();
    let vocab = *store.vocab();
    let a = dict.get_iri_id("http://ex/a").unwrap();
    let p = dict.get_iri_id("http://ex/p").unwrap();
    let b = dict.get_iri_id("http://ex/b").unwrap();
    let c = dict.encode_iri("http://ex/C");

    assert_eq!(store.insert(Triple::new(a, p, b)).kind, UpdateKind::Noop);
    assert_eq!(store.delete(&Triple::new(b, p, a)).kind, UpdateKind::Noop);
    // encode ex:C into the store's dictionary through insert_terms
    let stats = store.insert_terms(
        &rdf_model::Term::iri("http://ex/p"),
        &rdf_model::Term::iri(rdf_model::vocab::RDFS_DOMAIN),
        &rdf_model::Term::iri("http://ex/C"),
    );
    assert_eq!(stats.kind, UpdateKind::SchemaInsert);
    assert!(stats.added >= 1, "derives a rdf:type C");
    let _ = (vocab, c);
}

/// Counting vs DRed vs recompute on a bigger synthetic store: the three
/// maintainers agree triple-for-triple after a mixed stream.
#[test]
fn synthetic_mixed_stream_three_way_agreement() {
    let w = synth_generate(&SynthConfig {
        individuals: 80,
        edges: 300,
        typings: 120,
        seed: 99,
        ..Default::default()
    });
    let vocab = w.dataset.vocab;
    let graph = w.dataset.graph;

    let mut maintainers: [Box<dyn Maintainer>; 3] = [
        Box::new(RecomputeMaintainer::new(graph.clone(), vocab)),
        Box::new(DRedMaintainer::new(graph.clone(), vocab)),
        Box::new(CountingMaintainer::new(graph.clone(), vocab)),
    ];

    // Stream: remove every 7th triple, re-add every 3rd removed.
    let victims: Vec<Triple> = graph.iter().step_by(7).collect();
    for t in &victims {
        for m in &mut maintainers {
            m.delete(t);
        }
    }
    for t in victims.iter().step_by(3) {
        for m in &mut maintainers {
            m.insert(*t);
        }
    }
    let reference = maintainers[0].saturated().clone();
    for m in &maintainers[1..] {
        assert_eq!(m.saturated(), &reference, "{}", m.name());
    }
    assert_eq!(
        &saturate(&maintainers[0].explicit().collect(), &vocab).graph,
        &reference
    );
}
