//! # rdf-io — RDF concrete syntaxes
//!
//! Readers and writers for the two plain-text RDF serialisations used by
//! the examples, tests and workload fixtures of this reproduction:
//!
//! * **N-Triples** ([`parse_ntriples`], [`write_ntriples`]) — the
//!   line-oriented exchange syntax; fully supported including string
//!   escapes, language tags, datatype IRIs and `\u`/`\U` escapes. One
//!   statement parser ([`parse_statement`]) reads every line: it scans an
//!   IRI or a literal to its delimiter and copies it once, decoding
//!   escapes only where a `\` appears.
//! * **Turtle** ([`parse_turtle`]) — a practical subset: `@prefix` /
//!   `PREFIX` directives, prefixed names, the `a` keyword, predicate lists
//!   (`;`), object lists (`,`), numeric / boolean shorthand literals and
//!   labelled blank nodes. Collections `( … )` and anonymous nodes `[ … ]`
//!   are outside the subset and rejected with a clear error. The matching
//!   writer ([`write_turtle`]) produces grouped, prefix-compacted,
//!   deterministic output that round-trips through the parser.
//!
//! Both parsers intern terms in a caller-supplied [`rdf_model::Dictionary`]
//! and insert encoded triples into a caller-supplied [`rdf_model::Graph`],
//! so parsing large files never materialises an intermediate triple list.
//!
//! ```
//! use rdf_model::{Dictionary, Graph};
//! use rdf_io::{parse_turtle, write_ntriples};
//!
//! let mut dict = Dictionary::new();
//! let mut g = Graph::new();
//! parse_turtle(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:Anne ex:hasFriend ex:Marie ; a ex:Person .
//! "#, &mut dict, &mut g).unwrap();
//! assert_eq!(g.len(), 2);
//! let nt = write_ntriples(&g, &dict);
//! assert!(nt.contains("<http://example.org/Anne>"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ntriples;
mod turtle;
mod writer;

pub use error::ParseError;
pub use ntriples::{parse_ntriples, parse_statement, write_ntriples, write_ntriples_sorted};
pub use turtle::parse_turtle;
pub use writer::{write_turtle, PrefixMap};
