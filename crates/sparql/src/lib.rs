//! # sparql — BGP queries: AST, parser, planner, evaluator
//!
//! The paper considers "the well-known subset of SPARQL consisting of basic
//! graph pattern (BGP) queries, also known as SPARQL conjunctive queries"
//! (§II-A). This crate provides:
//!
//! * [`ast`]: variables, triple patterns, BGPs and queries whose body is a
//!   *union of BGPs* — the shape reformulation produces (`q_ref`);
//! * [`parse_query`]: a parser for the SPARQL dialect
//!   `PREFIX… SELECT [DISTINCT] ?v… WHERE { … }` with `UNION` groups;
//! * [`plan`]: the one statistics-driven greedy join-order planner, for
//!   triple patterns and hierarchy-range atoms alike;
//! * [`try_execute`]: the one executor every answer path uses — `q(G∞)`,
//!   the reformulated union `q_ref(G)` and the interval rewriting
//!   ([`IntervalQuery`]) — with shared-prefix tries, range probes and
//!   cooperative cancellation; [`execute_delta`] runs
//!   the same walker over an update's triples to maintain standing
//!   queries;
//! * [`evaluate`]: the plain per-branch index-nested-loop evaluator,
//!   kept as the reference the differential oracles compare against.
//!
//! Evaluation is plain *query evaluation* — `q(G)` — which yields
//! complete answers only when `G` is saturated or `q` reformulated,
//! exactly the dichotomy the paper studies.
//!
//! ```
//! use rdf_model::{Dictionary, Graph};
//! use sparql::{parse_query, evaluate};
//!
//! let mut dict = Dictionary::new();
//! let mut g = Graph::new();
//! rdf_io::parse_turtle(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:Anne ex:hasFriend ex:Marie .
//!     ex:Marie ex:hasFriend ex:Paul .
//! "#, &mut dict, &mut g).unwrap();
//!
//! let q = parse_query(r#"
//!     PREFIX ex: <http://example.org/>
//!     SELECT ?x ?z WHERE { ?x ex:hasFriend ?y . ?y ex:hasFriend ?z }
//! "#, &mut dict).unwrap();
//!
//! let sols = evaluate(&g, &q);
//! assert_eq!(sols.len(), 1); // Anne → Paul
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod eval;
mod parser;
pub mod plan;
mod range_eval;
mod rows;
mod union_eval;

pub use ast::{Aggregate, Bgp, Modifiers, OrderKey, QTerm, Query, TriplePattern, Variable};
pub use eval::{
    bgp_has_match, compare_terms, evaluate, evaluate_bgp, evaluate_bgp_with_plan, finalize,
    finalize_read, Solutions,
};
pub use parser::{parse_query, QueryParseError};
pub use range_eval::{
    evaluate_interval, try_evaluate_interval, IntervalQuery, RTerm, RangeAtom, RangeBgp,
};
pub use rows::Rows;
pub use union_eval::{
    evaluate_union, execute_delta, try_evaluate_union, try_execute, EvalStats, Executable,
    UnionEvalError,
};
