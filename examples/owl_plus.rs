//! RDFS-Plus in action — the "some of OWL's predicates" support the paper
//! attributes to AllegroGraph RDFS++ and Virtuoso (§II-C): `owl:inverseOf`,
//! `owl:SymmetricProperty` and `owl:TransitiveProperty`, materialised and
//! maintained under updates by `rdfs::plus::PlusMaintainer`.
//!
//! ```sh
//! cargo run --example owl_plus
//! ```

use rdf_model::{Dictionary, Graph, Vocab};
use rdfs::incremental::Maintainer;
use rdfs::plus::{OwlVocab, PlusMaintainer};

const DATA: &str = r#"
    @prefix geo:  <http://geo.example/> .
    @prefix owl:  <http://www.w3.org/2002/07/owl#> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

    # RDFS-Plus ontology
    geo:locatedIn  a owl:TransitiveProperty .
    geo:contains   owl:inverseOf geo:locatedIn .
    geo:borders    a owl:SymmetricProperty .
    geo:locatedIn  rdfs:domain geo:Place .

    # facts
    geo:montmartre geo:locatedIn geo:paris .
    geo:paris      geo:locatedIn geo:france .
    geo:france     geo:locatedIn geo:europe .
    geo:france     geo:borders   geo:spain .
"#;

/// Answers `sparql` over `g` and prints the solutions under `title`.
fn show(title: &str, g: &Graph, dict: &mut Dictionary, sparql: &str) {
    let q = sparql::parse_query(sparql, dict).expect("example query is valid");
    println!("{title}");
    for line in sparql::evaluate(g, &q).to_strings(dict) {
        println!("    {line}");
    }
}

fn main() {
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let owl = OwlVocab::intern(&mut dict);
    let mut graph = Graph::new();
    rdf_io::parse_turtle(DATA, &mut dict, &mut graph).expect("example data is valid Turtle");
    let plus = PlusMaintainer::new(graph.clone(), vocab, owl);

    show(
        "Montmartre is located in (transitivity):",
        plus.saturated(),
        &mut dict,
        "PREFIX geo: <http://geo.example/> SELECT ?x WHERE { geo:montmartre geo:locatedIn ?x }",
    );
    show(
        "\nEurope contains (inverse of the transitive closure):",
        plus.saturated(),
        &mut dict,
        "PREFIX geo: <http://geo.example/> SELECT ?x WHERE { geo:europe geo:contains ?x }",
    );
    show(
        "\nSpain borders (symmetry):",
        plus.saturated(),
        &mut dict,
        "PREFIX geo: <http://geo.example/> SELECT ?x WHERE { geo:spain geo:borders ?x }",
    );
    show(
        "\nPlaces (OWL edges composing with the RDFS domain rule):",
        plus.saturated(),
        &mut dict,
        "PREFIX geo: <http://geo.example/> SELECT DISTINCT ?x WHERE { ?x a geo:Place }",
    );

    // The same data under plain RDFS misses the OWL-derived answers.
    let rdfs_only = rdfs::saturate(&graph, &vocab).graph;
    let q = sparql::parse_query(
        "PREFIX geo: <http://geo.example/> SELECT ?x WHERE { geo:montmartre geo:locatedIn ?x }",
        &mut dict,
    )
    .expect("example query is valid");
    println!(
        "\nUnder plain RDFS the first query returns {} answer(s) — \"sometimes\n\
         incomplete\" is exactly how the paper characterises systems that\n\
         support only part of the OWL vocabulary.",
        sparql::evaluate(&rdfs_only, &q).len()
    );
}
