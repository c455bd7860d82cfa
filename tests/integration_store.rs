//! End-to-end store scenarios across crates: load RDF text, reason, query.

use rdf_model::Term;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};

/// The paper's §I motivating example, end to end.
#[test]
fn tom_the_cat_end_to_end() {
    for config in ReasoningConfig::ALL {
        let mut store = Store::new(config);
        store
            .load_turtle(
                r#"
                @prefix zoo: <http://zoo.example/> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                zoo:Cat rdfs:subClassOf zoo:Mammal .
                zoo:Tom a zoo:Cat .
            "#,
            )
            .unwrap();
        let sols = store
            .answer_sparql("PREFIX zoo: <http://zoo.example/> SELECT ?x WHERE { ?x a zoo:Mammal }")
            .unwrap();
        assert_eq!(sols.len(), 1, "{}", config.name());
    }
}

/// The paper's §II-A example: domain typing entails `Anne rdf:type Person`.
#[test]
fn anne_has_friend_domain_typing() {
    let mut store = Store::new(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
    store
        .load_turtle(
            r#"
            @prefix ex: <http://example.org/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:hasFriend rdfs:domain ex:Person .
            ex:Anne ex:hasFriend ex:Marie .
        "#,
        )
        .unwrap();
    let sols = store
        .answer_sparql("PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Person }")
        .unwrap();
    let names = sols.to_strings(&store.dictionary());
    assert_eq!(names, vec!["?x=<http://example.org/Anne>"]);
}

#[test]
fn ntriples_loading_and_literals() {
    let mut store = Store::new(ReasoningConfig::Reformulation);
    let n = store
        .load_ntriples(
            "<http://ex/p1> <http://ex/name> \"Anne\" .\n\
             <http://ex/p1> <http://ex/age> \"31\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        )
        .unwrap();
    assert_eq!(n, 2);
    let sols = store
        .answer_sparql("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:name \"Anne\" }")
        .unwrap();
    assert_eq!(sols.len(), 1);
}

#[test]
fn multi_hop_reasoning_query_with_joins() {
    let data = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:PhDStudent rdfs:subClassOf ex:Student .
        ex:Student rdfs:subClassOf ex:Person .
        ex:advises rdfs:domain ex:Professor .
        ex:advises rdfs:range ex:Student .
        ex:Professor rdfs:subClassOf ex:Person .
        ex:kim ex:advises ex:lee .
        ex:lee a ex:PhDStudent .
        ex:lee ex:friendOf ex:sam .
    "#;
    let q = "PREFIX ex: <http://ex/> SELECT DISTINCT ?prof ?stud WHERE { \
             ?prof a ex:Professor . ?prof ex:advises ?stud . ?stud a ex:Student }";
    let mut reference: Option<Vec<Vec<rdf_model::TermId>>> = None;
    for config in ReasoningConfig::ALL {
        let mut store = Store::new(config);
        store.load_turtle(data).unwrap();
        let sols = store.answer_sparql(q).unwrap();
        assert_eq!(sols.len(), 1, "{}: kim advises lee", config.name());
        let rows = sols.sorted_rows();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(r, &rows, "{}", config.name()),
        }
    }
}

#[test]
fn deletes_retract_inferences_in_live_store() {
    for config in ReasoningConfig::ALL {
        let mut store = Store::new(config);
        store
            .load_turtle(
                r#"
                @prefix ex: <http://ex/> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:Cat rdfs:subClassOf ex:Mammal .
                ex:Tom a ex:Cat .
            "#,
            )
            .unwrap();
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";
        assert_eq!(store.answer_sparql(q).unwrap().len(), 1);
        store.delete_terms(
            &Term::iri("http://ex/Tom"),
            &Term::iri(rdf_model::vocab::RDF_TYPE),
            &Term::iri("http://ex/Cat"),
        );
        assert_eq!(
            store.answer_sparql(q).unwrap().len(),
            0,
            "{}",
            config.name()
        );
    }
}

#[test]
fn stats_track_sizes_across_strategies() {
    let mut store = Store::new(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
    store
        .load_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:A rdfs:subClassOf ex:B .
            ex:x a ex:A .
        "#,
        )
        .unwrap();
    let stats = store.stats();
    assert_eq!(stats.base_triples, 2);
    assert_eq!(stats.saturated_triples, Some(3));
    assert!(stats.dictionary_terms >= 4);
}

#[test]
fn modifiers_and_aggregates_apply_uniformly_across_strategies() {
    let data = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Cat rdfs:subClassOf ex:Animal .
        ex:Dog rdfs:subClassOf ex:Animal .
        ex:tom a ex:Cat . ex:rex a ex:Dog . ex:ada a ex:Cat .
        ex:tom ex:age 3 . ex:rex ex:age 11 . ex:ada ex:age 2 .
    "#;
    for config in ReasoningConfig::ALL {
        let mut store = Store::new(config);
        store.load_turtle(data).unwrap();

        // COUNT over an entailed class
        let sols = store
            .answer_sparql(
                "PREFIX ex: <http://ex/> SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?x a ex:Animal }",
            )
            .unwrap();
        let n = store.dictionary().decode(sols.rows[0][0]).unwrap().clone();
        assert_eq!(n.as_literal().unwrap().lexical(), "3", "{}", config.name());

        // ORDER BY a numeric literal + LIMIT
        let sols = store
            .answer_sparql(
                "PREFIX ex: <http://ex/> SELECT DISTINCT ?x ?a WHERE { ?x a ex:Animal . ?x ex:age ?a } \
                 ORDER BY DESC(?a) LIMIT 2",
            )
            .unwrap();
        assert_eq!(sols.len(), 2, "{}", config.name());
        let oldest = store.dictionary().decode(sols.rows[0][0]).unwrap().clone();
        assert_eq!(oldest.as_iri(), Some("http://ex/rex"), "{}", config.name());

        // FILTER over an entailed pattern
        let sols = store
            .answer_sparql(
                "PREFIX ex: <http://ex/> SELECT DISTINCT ?x ?a WHERE { ?x a ex:Animal . ?x ex:age ?a . FILTER (?a < 10) }",
            )
            .unwrap();
        assert_eq!(sols.len(), 2, "{}: tom (3) and ada (2)", config.name());
    }
}

#[test]
fn empty_store_answers_empty() {
    let store = Store::new(ReasoningConfig::Reformulation);
    let sols = store
        .answer_sparql("SELECT ?x WHERE { ?x <http://p> ?y }")
        .unwrap();
    assert!(sols.is_empty());
}

/// A journal written by the store before the reproduction-only strategies
/// left it (counting saturation, no checkpoint; three update scripts that
/// intern new terms — one of them first interned by a query — plus a
/// delete) must recover to exactly the base graph it held. Replay
/// re-encodes every record's `new_terms` on top of the empty store's
/// dictionary, so this fails if that baseline interns different terms.
#[test]
fn committed_journal_fixture_recovers_its_exact_base_graph() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let store = Store::recover(fixtures.join("journal_compat")).unwrap();
    let want = std::fs::read_to_string(fixtures.join("journal_compat.nt")).unwrap();
    assert_eq!(store.export_ntriples(), want);
    assert_eq!(
        store.config(),
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting)
    );
    let sols = store
        .answer_sparql("SELECT DISTINCT ?x WHERE { ?x a <http://ex/Animal> }")
        .unwrap();
    assert_eq!(sols.len(), 3, "rex, felix and goldie");
}

/// Journals and checkpoints written while stores also served the recompute
/// and DRed maintainers name them: `journal_dred` holds a `SetConfig`
/// naming `saturation(dred)` and two loads; `checkpoint_recompute` holds a
/// checkpoint naming `saturation(recompute)` plus a one-load journal tail.
/// All three maintainers hold the same `G∞`, so both recover as counting
/// stores with the base graph and answers they held.
#[test]
fn retired_maintainer_names_recover_as_counting() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let journal = durability::Journal::replay(fixtures.join("journal_dred/journal.wal")).unwrap();
    assert!(matches!(
        &journal.records[0],
        durability::JournalRecord::SetConfig { name } if name == "saturation(dred)"
    ));
    let (checkpoint, _) = durability::load_latest(&fixtures.join("checkpoint_recompute"))
        .unwrap()
        .expect("the fixture holds a checkpoint");
    assert_eq!(checkpoint.config, "saturation(recompute)");

    let want = std::fs::read_to_string(fixtures.join("retired_maintainers.nt")).unwrap();
    for dir in ["journal_dred", "checkpoint_recompute"] {
        let store = Store::recover(fixtures.join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
        assert_eq!(
            store.config(),
            ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
            "{dir}"
        );
        assert_eq!(store.export_ntriples(), want, "{dir}");
        assert_eq!(store.stats().saturated_triples, Some(11), "{dir}");
        let sols = store
            .answer_sparql("SELECT DISTINCT ?x WHERE { ?x a <http://ex/Animal> }")
            .unwrap();
        assert_eq!(sols.len(), 3, "{dir}: rex, tom and goldie");
    }
}
