//! # webreason-core — the integrated store
//!
//! This crate ties every substrate together into the system the paper
//! describes: an RDF store whose *query answering* — "computing sound and
//! complete answers based on the data and the semantics" (§I) — can be
//! implemented by any of the techniques the tutorial classifies, behind
//! one [`Store`] API:
//!
//! * [`ReasoningConfig::Saturation`] — materialise `G∞` and evaluate
//!   `q(G∞)` (§II-B "Graph saturation"), maintained under updates by
//!   derivation counting ([`rdfs::incremental::CountingMaintainer`]);
//! * [`ReasoningConfig::Reformulation`] — leave `G` alone and evaluate
//!   `q_ref(G)` (§II-B "Query reformulation");
//! * [`ReasoningConfig::Interval`] — LiteMat-style interval rewriting:
//!   hierarchy unions of `q_ref` collapse into range scans over an
//!   interval-encoded dictionary.
//!
//! On top sit the performance tools the tutorial argues for:
//! [`cost::profile`] measures a dataset × query-set cost profile,
//! [`threshold::compute_thresholds`] turns it into the amortisation
//! thresholds of **Fig. 3**, and [`advisor::advise`] automates "the choice
//! between these two techniques, based on a quantitative evaluation of the
//! application setting" (§II-D).
//!
//! ```
//! use webreason_core::{ReasoningConfig, Store};
//!
//! let mut store = Store::new(ReasoningConfig::Reformulation);
//! store.load_turtle(r#"
//!     @prefix ex: <http://example.org/> .
//!     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!     ex:Cat rdfs:subClassOf ex:Mammal .
//!     ex:Tom a ex:Cat .
//! "#).unwrap();
//! let sols = store.answer_sparql(
//!     "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Mammal }"
//! ).unwrap();
//! assert_eq!(sols.len(), 1); // Tom, though never stated to be a mammal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod cost;
pub mod durable;
pub mod snapshot;
mod store;
pub mod threshold;

pub use advisor::{advise_from_snapshot, advise_observed, advise_three_way, ThreeWayAdvice};
pub use cost::ObservedCosts;
pub use durable::{DurableError, DurableStore, ScriptOp, ScriptOutcome};
pub use snapshot::{StoreReader, StoreSnapshot};
pub use store::{
    AnswerError, MaintenanceAlgorithm, ReasoningConfig, Store, StoreDelta, StoreStats,
};
pub use threshold::{
    interval_thresholds, observed_thresholds, IntervalThresholds, ObservedThresholds,
};

// Re-export the pieces callers compose with.
pub use durability::{DurabilityError, FsyncPolicy};
pub use sparql::Solutions;
