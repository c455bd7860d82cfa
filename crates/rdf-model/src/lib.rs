//! # rdf-model — the RDF data model
//!
//! This crate implements the core of the RDF data model as described in
//! Section II-A of *"Reasoning on Web Data: Algorithms and Performance"*
//! (Bursztyn, Goasdoué, Manolescu, Roatiş — ICDE 2015):
//!
//! * [`Term`]: IRIs, literals (plain, language-tagged, typed) and blank
//!   nodes — the components of well-formed RDF triples;
//! * [`Dictionary`]: a string interner mapping each distinct [`Term`] to a
//!   compact integer [`TermId`], so that every algorithm in the upper layers
//!   (saturation, reformulation, query evaluation) runs over integer triples
//!   and strings are only touched at parse / print time;
//! * [`Triple`] and [`Pattern`]: encoded triples and triple lookup patterns;
//! * [`Graph`]: an in-memory triple store indexed in the three orders
//!   SPO, POS and OSP, answering all eight bound/unbound pattern shapes
//!   with a single index probe; the indexes are copy-on-write chunks, so
//!   a clone costs a pointer per 16 keys and a write copies one chunk;
//! * [`Vocab`]: the RDF/RDFS built-in vocabulary, pre-interned.
//!
//! ## Example
//!
//! ```
//! use rdf_model::{Dictionary, Graph, Term, Triple, Pattern};
//!
//! let mut dict = Dictionary::new();
//! let anne = dict.encode_iri("http://example.org/Anne");
//! let knows = dict.encode_iri("http://example.org/knows");
//! let marie = dict.encode_iri("http://example.org/Marie");
//!
//! let mut g = Graph::new();
//! g.insert(Triple::new(anne, knows, marie));
//! assert_eq!(g.len(), 1);
//!
//! // Who does Anne know?
//! let hits = g.matches(&Pattern::new(Some(anne), Some(knows), None));
//! assert_eq!(hits.len(), 1);
//! assert_eq!(dict.decode(hits[0].o).unwrap(), &Term::iri("http://example.org/Marie"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dictionary;
mod graph;
mod interval;
mod term;
mod triple;
pub mod vocab;

pub use dictionary::{Dictionary, TermId};
pub use graph::Graph;
pub use interval::{IntervalDict, IntervalSet};
pub use term::{Literal, Term};
pub use triple::{Pattern, Triple};
pub use vocab::Vocab;
