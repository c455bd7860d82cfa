//! Social network scenario — the paper's §II-A running example, scaled up.
//!
//! `hasFriend rdfs:domain Person` means every friendship edge *implies* its
//! subject is a Person ("if the triples hasFriend rdfs:domain Person and
//! Anne hasFriend Marie hold in the graph, then so does the triple Anne
//! rdf:type Person"). This example contrasts saturation and reformulation
//! on a dynamic friend graph and shows the reformulated SPARQL text.
//!
//! ```sh
//! cargo run --example social_network
//! ```

use rdfs::Schema;
use reformulation::reformulate;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};

const SCHEMA: &str = r#"
    @prefix sn:   <http://social.example/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    sn:hasFriend     rdfs:domain        sn:Person .
    sn:hasFriend     rdfs:range         sn:Person .
    sn:closeFriendOf rdfs:subPropertyOf sn:hasFriend .
    sn:Influencer    rdfs:subClassOf    sn:Person .
"#;

fn main() {
    let mut store = Store::new(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
    store.load_turtle(SCHEMA).unwrap();
    store
        .load_turtle(
            r#"
            @prefix sn: <http://social.example/> .
            sn:anne  sn:hasFriend     sn:marie .
            sn:marie sn:closeFriendOf sn:paul .
            sn:zoe   a                sn:Influencer .
        "#,
        )
        .unwrap();

    let persons = "PREFIX sn: <http://social.example/> SELECT DISTINCT ?x WHERE { ?x a sn:Person }";
    let friends = "PREFIX sn: <http://social.example/> SELECT ?x ?y WHERE { ?x sn:hasFriend ?y }";

    println!("== saturation-backed store ==");
    let sols = store.answer_sparql(persons).unwrap();
    println!("persons ({}):", sols.len());
    for line in sols.to_strings(&store.dictionary()) {
        println!("    {line}");
    }
    let sols = store.answer_sparql(friends).unwrap();
    println!("friendship edges incl. close friends ({}):", sols.len());
    for line in sols.to_strings(&store.dictionary()) {
        println!("    {line}");
    }

    // Show what reformulation turns the person query into.
    println!("\n== the reformulated query (q_ref) ==");
    let mut ref_store = Store::new(ReasoningConfig::Reformulation);
    ref_store.load_turtle(SCHEMA).unwrap();
    let q = ref_store.prepare(persons).unwrap();
    let schema = Schema::extract(&ref_store.explicit_triples().collect(), ref_store.vocab());
    let r = reformulate(&q, &schema, ref_store.vocab()).unwrap();
    println!("{} union branches:", r.branches);
    println!("{}", r.query.to_sparql(&ref_store.dictionary()));

    // The dynamic part: unfriending must retract inferred types.
    println!("\n== dynamic updates ==");
    let before = store.answer_sparql(persons).unwrap().len();
    store.delete_terms(
        &rdf_model::Term::iri("http://social.example/anne"),
        &rdf_model::Term::iri("http://social.example/hasFriend"),
        &rdf_model::Term::iri("http://social.example/marie"),
    );
    let after = store.answer_sparql(persons).unwrap().len();
    println!("persons before unfriending: {before}, after: {after}");
    println!("(anne is no longer derivably a Person; marie still is, via her own edge)");
}
