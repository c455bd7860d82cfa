//! Quickstart: load RDF with an RDFS schema, then answer the same query
//! with each reasoning strategy the store serves.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use webreason_core::{ReasoningConfig, Store};

const DATA: &str = r#"
    @prefix zoo:  <http://zoo.example/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

    # The ontology (semantic constraints)
    zoo:Cat     rdfs:subClassOf zoo:Mammal .
    zoo:Dog     rdfs:subClassOf zoo:Mammal .
    zoo:Mammal  rdfs:subClassOf zoo:Animal .
    zoo:hasPet  rdfs:range      zoo:Animal .

    # The facts
    zoo:Tom   a zoo:Cat .
    zoo:Rex   a zoo:Dog .
    zoo:anne  zoo:hasPet zoo:Goldie .
"#;

const QUERY: &str = r#"
    PREFIX zoo: <http://zoo.example/>
    SELECT DISTINCT ?x WHERE { ?x a zoo:Animal }
"#;

fn main() {
    println!("Query: all animals — none is *explicitly* typed zoo:Animal.\n");
    for config in ReasoningConfig::ALL {
        let mut store = Store::new(config);
        store
            .load_turtle(DATA)
            .expect("example data is valid Turtle");
        let sols = store.answer_sparql(QUERY).expect("example query is valid");
        println!("strategy {:<22} -> {} answers", config.name(), sols.len());
        for line in sols.to_strings(&store.dictionary()) {
            println!("    {line}");
        }
    }
    println!(
        "\nEvery strategy finds Tom and Rex (subclass chains) and Goldie (range\n\
         typing)."
    );
}
