//! # rdfs — RDFS entailment: saturation and its maintenance
//!
//! This crate implements the *forward-chaining* side of the paper
//! (§II-B "Graph saturation"):
//!
//! * [`Schema`]: the four RDFS constraints of Fig. 1 (subclass,
//!   subproperty, domain typing, range typing) extracted from a graph and
//!   *closed* under the schema-level entailment rules (rdfs5, rdfs11 and
//!   the domain/range propagation rules), with forward and inverse
//!   accessors — the inverse maps drive query reformulation one crate up;
//! * [`rules`]: the immediate entailment rules of Fig. 2 (rdfs2, rdfs3,
//!   rdfs7, rdfs9) together with the schema-level rules, each applicable
//!   one step at a time (`⊢ᵢ_RDF` in the paper) — the basis for the naive
//!   reference engine and the explanation facility;
//! * [`saturate`]: the fix-point `G∞` of repeatedly applying immediate
//!   entailment, via a fast schema-closure-specialised single pass, with
//!   [`saturate_naive`] as the reference fix-point implementation;
//! * [`incremental`]: saturation maintenance under updates — the paper's
//!   central performance concern — by **derivation counting** (Broekstra &
//!   Kampman's truth-maintenance approach, ref. \[11\] of the paper),
//!   checked against [`saturate`] after every update.
//!
//! ## Example: the paper's running example (§I)
//!
//! "If the database only holds that *Tom is a cat* and the axiom that
//! *any cat is a mammal*, one can add to the database the fact that *Tom is
//! a mammal*":
//!
//! ```
//! use rdf_model::{Dictionary, Graph, Triple, Vocab};
//! use rdfs::saturate;
//!
//! let mut dict = Dictionary::new();
//! let vocab = Vocab::intern(&mut dict);
//! let tom = dict.encode_iri("http://zoo.example/Tom");
//! let cat = dict.encode_iri("http://zoo.example/Cat");
//! let mammal = dict.encode_iri("http://zoo.example/Mammal");
//!
//! let mut g = Graph::new();
//! g.insert(Triple::new(tom, vocab.rdf_type, cat));       // Tom is a cat
//! g.insert(Triple::new(cat, vocab.sub_class_of, mammal)); // cats are mammals
//!
//! let sat = saturate(&g, &vocab);
//! assert!(sat.graph.contains(&Triple::new(tom, vocab.rdf_type, mammal)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod incremental;
pub mod rules;
mod saturation;
mod schema;

pub use saturation::{saturate, saturate_full, saturate_naive, SaturationResult, SaturationStats};
pub use schema::Schema;
