//! `write_ntriples` → `parse_ntriples` round trips on whole graphs: the
//! LUBM-1 dataset, and a graph of literals and IRIs that carry every
//! escape the writer emits. Parsing the written text must give back the
//! same triple set, term for term.

use rdf_io::{parse_ntriples, write_ntriples, write_ntriples_sorted};
use rdf_model::{Dictionary, Graph, Literal, Term, Triple};
use workload::lubm::{generate, LubmConfig};

/// Writes `graph`, parses the text back, and checks that the parsed
/// graph holds the same triples as the original, decoded to terms.
fn assert_round_trips(graph: &Graph, dict: &Dictionary) {
    let text = write_ntriples(graph, dict);
    let (mut dict2, mut graph2) = (Dictionary::new(), Graph::new());
    let parsed = parse_ntriples(&text, &mut dict2, &mut graph2).expect("written text parses");
    assert_eq!(parsed, graph.len(), "one statement per triple");
    assert_eq!(graph2.len(), graph.len());
    assert_eq!(
        write_ntriples_sorted(&graph2, &dict2),
        write_ntriples_sorted(graph, dict)
    );
    let terms = |g: &Graph, d: &Dictionary| {
        let mut all: Vec<[Term; 3]> = g
            .iter()
            .map(|t| [t.s, t.p, t.o].map(|id| d.decode(id).expect("interned").clone()))
            .collect();
        all.sort();
        all
    };
    assert_eq!(terms(&graph2, &dict2), terms(graph, dict));
}

#[test]
fn lubm1_round_trips() {
    let ds = generate(&LubmConfig::scaled(1));
    assert!(ds.graph.len() > 50_000, "LUBM-1 is the full-size profile");
    assert_round_trips(&ds.graph, &ds.dict);
}

#[test]
fn escaped_literals_and_iris_round_trip() {
    let lexicals = [
        "",
        "plain",
        "quote \" inside",
        "back\\slash",
        "tab\tnew\nline\rreturn",
        "\u{8} backspace \u{c} form feed",
        "control \u{1} \u{1f}",
        "apostrophe ' and <angle> brackets",
        "café 中文 🦀",
        "trailing backslash \\",
        "\"",
    ];
    let iris = [
        "http://ex/a",
        "http://ex/é/𝄞",
        "http://ex/with#fragment",
        "urn:x:y",
    ];
    let mut dict = Dictionary::new();
    let mut graph = Graph::new();
    let p = dict.encode(&Term::iri("http://ex/p"));
    for (i, lexical) in lexicals.iter().enumerate() {
        let subject = dict.encode(&Term::iri(iris[i % iris.len()]));
        let blank = dict.encode(&Term::blank(format!("b{i}")));
        for literal in [
            Literal::plain(*lexical),
            Literal::lang(*lexical, "en-GB"),
            Literal::typed(*lexical, "http://www.w3.org/2001/XMLSchema#string"),
            Literal::typed(*lexical, iris[(i + 1) % iris.len()]),
        ] {
            let o = dict.encode(&Term::Literal(literal));
            graph.insert(Triple::new(subject, p, o));
            graph.insert(Triple::new(blank, p, o));
        }
    }
    for s in iris {
        for o in iris {
            let (s, o) = (dict.encode(&Term::iri(s)), dict.encode(&Term::iri(o)));
            graph.insert(Triple::new(s, p, o));
        }
    }
    assert_round_trips(&graph, &dict);
}
