//! Turtle writer with prefix compaction.
//!
//! Produces deterministic, human-oriented Turtle: statements grouped by
//! subject (predicate lists with `;`, object lists with `,`), `a` for
//! `rdf:type`, IRIs compacted against a [`PrefixMap`], everything sorted.
//! The output round-trips through [`crate::parse_turtle`] (property-tested).

use rdf_model::{vocab, Dictionary, Term, TermId, Triple};
use std::fmt::Write as _;

/// An ordered prefix → namespace mapping used for IRI compaction.
///
/// Longest-namespace match wins, so overlapping namespaces (e.g. a vhost
/// and a path below it) compact correctly.
#[derive(Debug, Clone, Default)]
pub struct PrefixMap {
    pairs: Vec<(String, String)>,
}

impl PrefixMap {
    /// An empty map (no compaction; all IRIs written in full).
    pub fn new() -> Self {
        Self::default()
    }

    /// The well-known prefixes: `rdf:`, `rdfs:`, `xsd:`, `owl:`.
    pub fn common() -> Self {
        let mut m = Self::new();
        m.add("rdf", vocab::NS_RDF);
        m.add("rdfs", vocab::NS_RDFS);
        m.add("xsd", vocab::NS_XSD);
        m.add("owl", "http://www.w3.org/2002/07/owl#");
        m
    }

    /// Adds (or replaces) a prefix binding.
    pub fn add(&mut self, prefix: &str, namespace: &str) -> &mut Self {
        self.pairs.retain(|(p, _)| p != prefix);
        self.pairs.push((prefix.to_owned(), namespace.to_owned()));
        self
    }

    /// The bindings, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(p, n)| (p.as_str(), n.as_str()))
    }

    /// Compacts `iri` to `prefix:local` if a namespace matches and the
    /// local part is safe to write unescaped.
    fn compact(&self, iri: &str) -> Option<String> {
        let (prefix, local) = self
            .pairs
            .iter()
            .filter_map(|(p, ns)| iri.strip_prefix(ns.as_str()).map(|local| (p, local)))
            .max_by_key(|(_, local)| iri.len() - local.len())?;
        let safe = !local.is_empty()
            && !local.ends_with('.')
            && local
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
        if safe {
            Some(format!("{prefix}:{local}"))
        } else {
            None
        }
    }
}

fn render_term(id: TermId, dict: &Dictionary, prefixes: &PrefixMap) -> String {
    match dict.decode(id) {
        Some(Term::Iri(iri)) => prefixes.compact(iri).unwrap_or_else(|| format!("<{iri}>")),
        Some(term) => term.to_string(),
        None => format!("{id}"),
    }
}

/// Serialises `triples` as Turtle against `prefixes`. Deterministic:
/// subjects, predicates and objects are sorted by their rendered form,
/// whatever the iteration order. A `&Graph` is an iterator of its triples.
pub fn write_turtle(
    triples: impl IntoIterator<Item = Triple>,
    dict: &Dictionary,
    prefixes: &PrefixMap,
) -> String {
    let mut out = String::new();
    let rdf_type = dict.get_iri_id(vocab::RDF_TYPE);
    let mut rows: Vec<(String, String, String)> = triples
        .into_iter()
        .map(|t| {
            let p = if Some(t.p) == rdf_type {
                "a".to_owned()
            } else {
                render_term(t.p, dict, prefixes)
            };
            (
                render_term(t.s, dict, prefixes),
                p,
                render_term(t.o, dict, prefixes),
            )
        })
        .collect();
    rows.sort_unstable();
    let mut body = String::new();
    let mut prev: Option<(&str, &str)> = None;
    for (s, p, o) in &rows {
        let _ = match prev {
            Some((ps, pp)) if ps == s && pp == p => write!(body, " , {o}"),
            Some((ps, _)) if ps == s => write!(body, " ;\n    {p} {o}"),
            Some(_) => write!(body, " .\n{s} {p} {o}"),
            None => write!(body, "{s} {p} {o}"),
        };
        prev = Some((s, p));
    }
    if prev.is_some() {
        body.push_str(" .\n");
    }
    // Only emit the prefixes that are actually used.
    for (prefix, ns) in prefixes.iter() {
        if body.contains(&format!("{prefix}:")) {
            let _ = writeln!(out, "@prefix {prefix}: <{ns}> .");
        }
    }
    if !out.is_empty() && !body.is_empty() {
        out.push('\n');
    }
    out.push_str(&body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turtle::parse_turtle;
    use rdf_model::Graph;

    fn fixture() -> (Dictionary, Graph, PrefixMap) {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Cat rdfs:subClassOf ex:Mammal .
            ex:tom a ex:Cat ; ex:name "Tom" ; ex:age 3 ; ex:likes ex:ada , ex:rex .
            _:b1 ex:p "x"@en .
        "#,
            &mut dict,
            &mut g,
        )
        .unwrap();
        let mut prefixes = PrefixMap::common();
        prefixes.add("ex", "http://ex/");
        (dict, g, prefixes)
    }

    #[test]
    fn output_is_grouped_and_compacted() {
        let (dict, g, prefixes) = fixture();
        let text = write_turtle(&g, &dict, &prefixes);
        assert!(text.contains("@prefix ex: <http://ex/> ."));
        assert!(text.contains("ex:tom a ex:Cat"), "{text}");
        assert!(text.contains(";\n    "), "predicate lists grouped");
        assert!(text.contains("ex:ada , ex:rex"), "object list");
        assert!(text.contains("ex:Cat rdfs:subClassOf ex:Mammal ."));
        assert!(!text.contains("@prefix owl:"), "unused prefixes omitted");
    }

    #[test]
    fn round_trips_through_the_parser() {
        let (dict, g, prefixes) = fixture();
        let text = write_turtle(&g, &dict, &prefixes);
        let mut dict2 = Dictionary::new();
        let mut g2 = Graph::new();
        parse_turtle(&text, &mut dict2, &mut g2).expect("writer output parses");
        assert_eq!(g.len(), g2.len());
        assert_eq!(
            crate::ntriples::write_ntriples_sorted(&g, &dict),
            crate::ntriples::write_ntriples_sorted(&g2, &dict2),
        );
    }

    #[test]
    fn deterministic_output() {
        let (dict, g, prefixes) = fixture();
        assert_eq!(
            write_turtle(&g, &dict, &prefixes),
            write_turtle(&g, &dict, &prefixes)
        );
    }

    #[test]
    fn unsafe_locals_stay_full_iris() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(
            "@prefix ex: <http://ex/> .\n<http://ex/with/slash> ex:p <http://ex/trailing.> .",
            &mut dict,
            &mut g,
        )
        .unwrap();
        let mut prefixes = PrefixMap::new();
        prefixes.add("ex", "http://ex/");
        let text = write_turtle(&g, &dict, &prefixes);
        assert!(text.contains("<http://ex/with/slash>"), "{text}");
        assert!(text.contains("<http://ex/trailing.>"), "{text}");
        assert!(text.contains("ex:p"), "plain local still compacts");
    }

    #[test]
    fn longest_namespace_wins() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(
            "@prefix a: <http://ex/> .\n<http://ex/sub/x> <http://ex/p> <http://ex/y> .",
            &mut dict,
            &mut g,
        )
        .unwrap();
        let mut prefixes = PrefixMap::new();
        prefixes.add("outer", "http://ex/");
        prefixes.add("inner", "http://ex/sub/");
        let text = write_turtle(&g, &dict, &prefixes);
        assert!(text.contains("inner:x"), "{text}");
        assert!(text.contains("outer:y"), "{text}");
    }

    #[test]
    fn empty_graph_writes_empty() {
        let dict = Dictionary::new();
        let g = Graph::new();
        assert_eq!(write_turtle(&g, &dict, &PrefixMap::common()), "");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rdf_model::{Literal, Triple};

        fn arb_term() -> impl Strategy<Value = Term> {
            prop_oneof![
                "[a-z0-9/._-]{1,12}".prop_map(|l| Term::iri(format!("http://ex/{l}"))),
                "\\PC{0,12}".prop_map(Term::literal),
                ("\\PC{0,8}", "[a-z]{1,4}").prop_map(|(l, t)| Term::Literal(Literal::lang(l, &t))),
                "[A-Za-z][A-Za-z0-9_]{0,6}".prop_map(Term::blank),
            ]
        }

        proptest! {
            /// write_turtle ∘ parse_turtle = identity on the triple set.
            #[test]
            fn round_trip(
                triples in proptest::collection::vec(
                    (
                        prop_oneof![
                            "[a-z0-9._-]{1,10}".prop_map(|l| Term::iri(format!("http://ex/{l}"))),
                            "[A-Za-z][A-Za-z0-9_]{0,6}".prop_map(Term::blank),
                        ],
                        "[a-z0-9._-]{1,10}".prop_map(|l| Term::iri(format!("http://ex/{l}"))),
                        arb_term(),
                    ),
                    0..20,
                )
            ) {
                let mut dict = Dictionary::new();
                let mut g = Graph::new();
                for (s, p, o) in &triples {
                    g.insert(Triple::new(dict.encode(s), dict.encode(p), dict.encode(o)));
                }
                let mut prefixes = PrefixMap::common();
                prefixes.add("ex", "http://ex/");
                let text = write_turtle(&g, &dict, &prefixes);
                let mut dict2 = Dictionary::new();
                let mut g2 = Graph::new();
                parse_turtle(&text, &mut dict2, &mut g2).expect("writer output parses");
                prop_assert_eq!(g.len(), g2.len());
                prop_assert_eq!(
                    crate::ntriples::write_ntriples_sorted(&g, &dict),
                    crate::ntriples::write_ntriples_sorted(&g2, &dict2)
                );
            }
        }
    }
}
