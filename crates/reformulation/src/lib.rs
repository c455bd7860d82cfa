//! # reformulation — RDFS-aware query rewriting
//!
//! The second query-answering technique of the paper (§II-B "Query
//! reformulation"): "the database is left unchanged, while queries are
//! modified (reformulated) to take into account all the known semantic
//! constraints", such that evaluating the reformulated query against the
//! *original* graph yields the answers of the original query against the
//! *saturated* graph:
//!
//! ```text
//! q_ref(G) = q(G∞)
//! ```
//!
//! [`reformulate`] rewrites each BGP of a query into a **union of BGPs**
//! by exhaustively applying the RDFS entailment rules *backwards* on one
//! atom at a time, against the closed [`rdfs::Schema`]:
//!
//! | atom | backward rule | rewritings |
//! |------|---------------|------------|
//! | `x rdf:type C` | rdfs9 | `x rdf:type C'` for every subclass `C' ⊑ C` |
//! | `x rdf:type C` | rdfs2 | `x p y_fresh` for every `p` with (closed) domain `C` |
//! | `x rdf:type C` | rdfs3 | `y_fresh p x` for every `p` with (closed) range `C` |
//! | `x P y` | rdfs7 | `x P' y` for every subproperty `P' ⊑ P` |
//!
//! In the paper's example: "a query asking for all mammals would be
//! reformulated into 'find all mammals and all cats as particular cases'":
//!
//! ```
//! use rdf_model::{Dictionary, Graph, Triple, Vocab};
//! use rdfs::Schema;
//! use reformulation::reformulate;
//! use sparql::parse_query;
//!
//! let mut dict = Dictionary::new();
//! let vocab = Vocab::intern(&mut dict);
//! let (cat, mammal) = (dict.encode_iri("http://z/Cat"), dict.encode_iri("http://z/Mammal"));
//! let mut g = Graph::new();
//! g.insert(Triple::new(cat, vocab.sub_class_of, mammal));
//!
//! let q = parse_query("SELECT ?x WHERE { ?x a <http://z/Mammal> }", &mut dict).unwrap();
//! let r = reformulate(&q, &Schema::extract(&g, &vocab), &vocab).unwrap();
//! assert_eq!(r.branches, 2); // mammals ∪ cats
//! assert!(r.query.to_sparql(&dict).contains("UNION"));
//! ```
//!
//! ## Supported dialect
//!
//! Reformulation is defined for the RDF database fragment the paper's
//! reformulation references \[15\]–\[21\] target: every triple pattern has
//! a *constant* property, and `rdf:type` patterns have a *constant* class
//! object. Patterns with a variable property, a variable class, or an RDFS
//! schema property are rejected with [`ReformulationError`] — "reformulation
//! leads to a subtle interplay between the RDF and SPARQL dialects"
//! (§II-B); such queries are answered by saturation or backward chaining
//! in the `webreason-core` store instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod containment;
mod interval;

pub use containment::{homomorphism, minimize, prune_subsumed};
pub use interval::reformulate_intervals;

use rdf_model::{TermId, Vocab};
use rdfs::Schema;
use rustc_hash::FxHashSet;
use sparql::{Bgp, QTerm, Query, TriplePattern, Variable};
use std::fmt;

/// Why a query could not be reformulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReformulationError {
    /// A triple pattern has a variable in the property position.
    VariableProperty,
    /// An `rdf:type` pattern has a variable class object.
    VariableClass,
    /// A pattern queries an RDFS schema property (`rdfs:subClassOf`, …);
    /// answering those under entailment requires the schema closure, not a
    /// UCQ reformulation.
    SchemaProperty(TermId),
    /// The query uses `FILTER NOT EXISTS`: negation over entailed data is
    /// not UCQ-rewritable (the inner pattern would probe the unsaturated
    /// graph) — answer it under a saturation strategy instead.
    Negation,
}

impl fmt::Display for ReformulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReformulationError::VariableProperty => {
                write!(f, "cannot reformulate a pattern with a variable property")
            }
            ReformulationError::VariableClass => {
                write!(
                    f,
                    "cannot reformulate an rdf:type pattern with a variable class"
                )
            }
            ReformulationError::SchemaProperty(p) => {
                write!(f, "cannot reformulate a pattern over schema property {p}")
            }
            ReformulationError::Negation => {
                write!(
                    f,
                    "cannot reformulate FILTER NOT EXISTS; use a saturation strategy"
                )
            }
        }
    }
}

impl std::error::Error for ReformulationError {}

/// The result of reformulating a query.
#[derive(Debug, Clone)]
pub struct Reformulation {
    /// The reformulated query `q_ref`: same projection, `DISTINCT`
    /// semantics (the paper's answer sets), body a union of BGPs.
    pub query: Query,
    /// Number of BGPs in the union — the "syntactically larger" size the
    /// paper warns about.
    pub branches: usize,
    /// Single-atom rewrite steps performed (a cost proxy).
    pub rewrite_steps: usize,
    /// Union branches removed by core minimisation + subsumption pruning
    /// (see [`minimize`] / [`prune_subsumed`]).
    pub pruned_branches: usize,
}

/// Optimisation switches for [`reformulate_with`] — the ablation knobs of
/// experiment T-REF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Replace every branch with its core (fold redundant existential
    /// atoms).
    pub minimize: bool,
    /// Drop branches subsumed by a more general branch.
    pub prune_subsumed: bool,
}

impl Default for Options {
    /// Both optimisations on — what [`reformulate`] uses.
    fn default() -> Self {
        Options {
            minimize: true,
            prune_subsumed: true,
        }
    }
}

impl Options {
    /// The raw rewriting, no optimisation (the ablation baseline).
    pub fn raw() -> Self {
        Options {
            minimize: false,
            prune_subsumed: false,
        }
    }
}

/// Checks that every pattern is in the supported reformulation dialect.
pub(crate) fn check_dialect(bgp: &Bgp, vocab: &Vocab) -> Result<(), ReformulationError> {
    for tp in &bgp.patterns {
        match tp.p {
            QTerm::Var(_) => return Err(ReformulationError::VariableProperty),
            QTerm::Const(p) if vocab.is_schema_property(p) => {
                return Err(ReformulationError::SchemaProperty(p));
            }
            QTerm::Const(p) if p == vocab.rdf_type => {
                if tp.o.as_const().is_none() {
                    return Err(ReformulationError::VariableClass);
                }
            }
            QTerm::Const(_) => {}
        }
    }
    Ok(())
}

/// Canonicalises a BGP up to renaming of the *fresh* variables (ids `>=
/// n_query_vars`), so that rewritings differing only in fresh-variable
/// identity deduplicate.
fn canonical_key(bgp: &Bgp, n_query_vars: usize) -> Bgp {
    // Sort with fresh variables masked so the order is independent of the
    // particular fresh ids…
    let mask = |t: QTerm| -> (u8, u32) {
        match t {
            QTerm::Const(c) => (0, c.index() as u32),
            QTerm::Var(v) if v.index() < n_query_vars => (1, v.0 as u32),
            QTerm::Var(_) => (2, u32::MAX),
        }
    };
    let mut patterns = bgp.patterns.clone();
    patterns.sort_by_key(|tp| (mask(tp.s), mask(tp.p), mask(tp.o)));
    // …then rename fresh variables by first occurrence in that order…
    let mut next = n_query_vars as u16;
    let mut renames: Vec<(Variable, Variable)> = Vec::new();
    let mut rename = |t: &mut QTerm| {
        if let QTerm::Var(v) = t {
            if v.index() >= n_query_vars {
                if let Some(&(_, to)) = renames.iter().find(|(from, _)| from == v) {
                    *v = to;
                } else {
                    let to = Variable(next);
                    next += 1;
                    renames.push((*v, to));
                    *v = to;
                }
            }
        }
    };
    for tp in &mut patterns {
        rename(&mut tp.s);
        rename(&mut tp.p);
        rename(&mut tp.o);
    }
    // …and normalise conjunct order and duplicates.
    patterns.sort();
    patterns.dedup();
    Bgp { patterns }
}

struct Rewriter<'a> {
    schema: &'a Schema,
    vocab: &'a Vocab,
    next_fresh: u16,
    max_fresh: u16,
}

impl Rewriter<'_> {
    fn fresh_var(&mut self) -> Variable {
        let v = Variable(self.next_fresh);
        self.next_fresh += 1;
        self.max_fresh = self.max_fresh.max(self.next_fresh);
        v
    }

    /// Emits every single-step rewriting of atom `i` of `bgp`.
    fn rewrite_atom(&mut self, bgp: &Bgp, i: usize, mut emit: impl FnMut(Bgp)) -> usize {
        let tp = bgp.patterns[i];
        let mut steps = 0;
        let replace = |replacement: TriplePattern, emit: &mut dyn FnMut(Bgp)| {
            let mut patterns = bgp.patterns.clone();
            patterns[i] = replacement;
            emit(Bgp { patterns });
        };
        match tp.p {
            QTerm::Const(p) if p == self.vocab.rdf_type => {
                let Some(class) = tp.o.as_const() else {
                    return 0;
                };
                // rdfs9 backwards: subclasses
                for &sub in self.schema.sub_classes(class) {
                    steps += 1;
                    replace(TriplePattern::new(tp.s, tp.p, QTerm::Const(sub)), &mut emit);
                }
                // rdfs2 backwards: properties whose domain is `class`
                for &p in self.schema.properties_with_domain(class) {
                    steps += 1;
                    let y = self.fresh_var();
                    replace(
                        TriplePattern::new(tp.s, QTerm::Const(p), QTerm::Var(y)),
                        &mut emit,
                    );
                }
                // rdfs3 backwards: properties whose range is `class`
                for &p in self.schema.properties_with_range(class) {
                    steps += 1;
                    let y = self.fresh_var();
                    replace(
                        TriplePattern::new(QTerm::Var(y), QTerm::Const(p), tp.s),
                        &mut emit,
                    );
                }
            }
            QTerm::Const(p) => {
                // rdfs7 backwards: subproperties
                for &sub in self.schema.sub_properties(p) {
                    steps += 1;
                    replace(TriplePattern::new(tp.s, QTerm::Const(sub), tp.o), &mut emit);
                }
            }
            QTerm::Var(_) => {}
        }
        steps
    }
}

/// Reformulates `q` against `schema` with both optimisations on,
/// producing `q_ref` with `q_ref(G) = q(G∞)` under answer-set
/// (`DISTINCT`) semantics.
pub fn reformulate(
    q: &Query,
    schema: &Schema,
    vocab: &Vocab,
) -> Result<Reformulation, ReformulationError> {
    reformulate_with(q, schema, vocab, Options::default())
}

/// Like [`reformulate`], with explicit optimisation [`Options`].
pub fn reformulate_with(
    q: &Query,
    schema: &Schema,
    vocab: &Vocab,
    options: Options,
) -> Result<Reformulation, ReformulationError> {
    if !q.not_exists.is_empty() {
        return Err(ReformulationError::Negation);
    }
    for bgp in &q.bgps {
        check_dialect(bgp, vocab)?;
    }
    let n_query_vars = q.var_names.len();
    let mut rw = Rewriter {
        schema,
        vocab,
        next_fresh: n_query_vars as u16,
        max_fresh: n_query_vars as u16,
    };

    let mut seen: FxHashSet<Bgp> = FxHashSet::default();
    let mut output: Vec<Bgp> = Vec::new();
    let mut queue: Vec<Bgp> = Vec::new();
    let mut rewrite_steps = 0usize;

    for bgp in &q.bgps {
        let key = canonical_key(bgp, n_query_vars);
        if seen.insert(key) {
            output.push(bgp.clone());
            queue.push(bgp.clone());
        }
    }

    while let Some(bgp) = queue.pop() {
        for i in 0..bgp.patterns.len() {
            // Fresh variables restart per expansion front; the canonical key
            // hides their identity, and the final numbering is compacted below.
            rewrite_steps += rw.rewrite_atom(&bgp, i, |candidate| {
                let key = canonical_key(&candidate, n_query_vars);
                if seen.insert(key.clone()) {
                    output.push(key.clone());
                    queue.push(key);
                }
            });
        }
    }

    // Optimisation passes: core minimisation then subsumption pruning,
    // both with the projected variables fixed (answer-set semantics).
    let raw_branches = output.len();
    let answer_vars: FxHashSet<Variable> = q.projection.iter().copied().collect();
    if options.minimize {
        for bgp in &mut output {
            *bgp = containment::minimize(bgp, &answer_vars);
        }
        output.sort();
        output.dedup();
    }
    if options.prune_subsumed {
        containment::prune_subsumed(&mut output, &answer_vars);
    }
    let pruned_branches = raw_branches - output.len();

    // Stable order for deterministic output and tests.
    output.sort();

    // Extend the variable table with names for the fresh variables.
    let mut var_names = q.var_names.clone();
    let max_var = output
        .iter()
        .flat_map(|b| b.patterns.iter().flat_map(|tp| tp.variables()))
        .map(|v| v.index())
        .max()
        .unwrap_or(0);
    while var_names.len() <= max_var {
        var_names.push(format!("_r{}", var_names.len() - n_query_vars));
    }

    let branches = output.len();
    let query = Query {
        var_names,
        projection: q.projection.clone(),
        distinct: true,
        bgps: output,
        // Filters, solution modifiers and aggregates are orthogonal to the
        // BGP core: they carry through and apply to the union's solutions.
        filters: q.filters.clone(),
        not_exists: Vec::new(), // rejected above; never reaches here populated
        modifiers: q.modifiers.clone(),
        aggregate: q.aggregate.clone(),
    };
    Ok(Reformulation {
        query,
        branches,
        rewrite_steps,
        pruned_branches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_io::parse_turtle;
    use rdf_model::{Dictionary, Graph};
    use rdfs::saturate;
    use sparql::{evaluate, parse_query};

    struct Fx {
        dict: Dictionary,
        vocab: Vocab,
        g: Graph,
    }

    fn setup(data: &str) -> Fx {
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        let mut g = Graph::new();
        parse_turtle(data, &mut dict, &mut g).expect("fixture parses");
        Fx { dict, vocab, g }
    }

    /// Checks the central contract: q_ref(G) = q(G∞) (answer sets).
    fn assert_contract(f: &mut Fx, query: &str) -> Reformulation {
        let q = parse_query(query, &mut f.dict).expect("query parses");
        let schema = Schema::extract(&f.g, &f.vocab);
        let r = reformulate(&q, &schema, &f.vocab).expect("reformulates");
        let sat = saturate(&f.g, &f.vocab).graph;
        let direct: FxHashSet<_> = evaluate(&sat, &q).as_set();
        let reformulated: FxHashSet<_> = evaluate(&f.g, &r.query).as_set();
        assert_eq!(reformulated, direct, "q_ref(G) != q(G∞) for {query}");
        r
    }

    const ZOO: &str = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Cat rdfs:subClassOf ex:Mammal .
        ex:Dog rdfs:subClassOf ex:Mammal .
        ex:Mammal rdfs:subClassOf ex:Animal .
        ex:Tom a ex:Cat .
        ex:Rex a ex:Dog .
        ex:Daffy a ex:Animal .
    "#;

    #[test]
    fn paper_mammal_example() {
        // "a query asking for all mammals would be reformulated into 'find
        // all mammals and all cats as particular cases', and Tom would be
        // returned even though it was not explicitly stated to be a mammal."
        let mut f = setup(ZOO);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }",
        );
        assert_eq!(r.branches, 3, "Mammal ∪ Cat ∪ Dog");
        // Tom is in the answers
        let sols = evaluate(&f.g, &r.query);
        let tom = f.dict.get_iri_id("http://ex/Tom").unwrap();
        assert!(sols.rows.iter().any(|row| row == [tom]));
    }

    #[test]
    fn subclass_chain_expands_transitively() {
        let mut f = setup(ZOO);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Animal }",
        );
        assert_eq!(r.branches, 4, "Animal ∪ Mammal ∪ Cat ∪ Dog");
    }

    const UNIVERSITY: &str = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:teaches rdfs:subPropertyOf ex:worksFor .
        ex:worksFor rdfs:domain ex:Employee .
        ex:worksFor rdfs:range ex:Org .
        ex:Employee rdfs:subClassOf ex:Person .
        ex:Professor rdfs:subClassOf ex:Employee .
        ex:bob ex:teaches ex:uni1 .
        ex:carol ex:worksFor ex:uni2 .
        ex:dan a ex:Professor .
        ex:eve a ex:Person .
    "#;

    #[test]
    fn subproperty_reformulation() {
        let mut f = setup(UNIVERSITY);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:worksFor ?y }",
        );
        assert_eq!(r.branches, 2, "worksFor ∪ teaches");
    }

    #[test]
    fn domain_range_reformulation() {
        let mut f = setup(UNIVERSITY);
        // Employees: direct type, subclass Professor, or subject of
        // worksFor/teaches (domain), each as its own union branch.
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Employee }",
        );
        assert_eq!(r.branches, 4, "Employee ∪ Professor ∪ ∃worksFor ∪ ∃teaches");
        // Persons add one more level.
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person }",
        );
        assert_eq!(
            r.branches, 5,
            "Person ∪ Employee ∪ Professor ∪ ∃worksFor ∪ ∃teaches"
        );
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?y WHERE { ?y a ex:Org }",
        );
        assert_eq!(r.branches, 3, "Org ∪ range(worksFor) ∪ range(teaches)");
    }

    #[test]
    fn multi_atom_query_cross_product_of_rewritings() {
        let mut f = setup(UNIVERSITY);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:worksFor ?y . ?x a ex:Person }",
        );
        // The raw cross product (2 rewritings of the worksFor atom × 6 of
        // the Person atom, modulo fresh-variable isomorphism) collapses
        // hard under minimisation + subsumption: `?x worksFor ?y` alone
        // already implies `?x a Person` via the domain constraint, so the
        // branch {?x worksFor ?y} subsumes every branch that extends it.
        assert!(r.pruned_branches > 5, "got {} pruned", r.pruned_branches);
        assert!(r.branches <= 4, "got {}", r.branches);
        // The ablation baseline keeps the blow-up (and stays correct).
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:worksFor ?y . ?x a ex:Person }",
            &mut f.dict,
        )
        .unwrap();
        let schema = Schema::extract(&f.g, &f.vocab);
        let raw = reformulate_with(&q, &schema, &f.vocab, Options::raw()).unwrap();
        assert!(raw.branches >= 10, "raw blow-up kept: {}", raw.branches);
        assert_eq!(raw.pruned_branches, 0);
        let sat = rdfs::saturate(&f.g, &f.vocab).graph;
        assert_eq!(
            evaluate(&f.g, &raw.query).as_set(),
            evaluate(&sat, &q).as_set(),
            "raw reformulation is still correct"
        );
    }

    #[test]
    fn pruning_is_sound_and_effective_on_domain_example() {
        // SELECT ?x WHERE { ?x a Employee }: the ∃worksFor and ∃teaches
        // branches cannot be pruned (a worksFor edge is the only evidence
        // for carol), and the subclass branches cannot fold into them.
        let mut f = setup(UNIVERSITY);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Employee }",
        );
        assert_eq!(r.branches, 4, "no over-pruning of incomparable branches");
        assert_eq!(r.pruned_branches, 0);
    }

    #[test]
    fn no_schema_means_identity() {
        let mut f = setup("@prefix ex: <http://ex/> .\nex:a ex:p ex:b .");
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }",
        );
        assert_eq!(r.branches, 1);
        assert_eq!(r.rewrite_steps, 0);
    }

    #[test]
    fn constants_in_subject_position() {
        let mut f = setup(ZOO);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?c WHERE { ex:Tom a ex:Mammal . ?c a ex:Animal }",
        );
        assert!(r.branches >= 4);
    }

    #[test]
    fn cyclic_schema_terminates_and_is_correct() {
        let mut f = setup(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:A rdfs:subClassOf ex:B .
            ex:B rdfs:subClassOf ex:A .
            ex:x a ex:A .
            ex:y a ex:B .
        "#,
        );
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:B }",
        );
        assert_eq!(r.branches, 2, "B ∪ A");
    }

    #[test]
    fn unsupported_dialect_is_rejected() {
        let mut f = setup(ZOO);
        let schema = Schema::extract(&f.g, &f.vocab);
        for (src, want) in [
            (
                "SELECT ?p WHERE { <http://s> ?p <http://o> }",
                ReformulationError::VariableProperty,
            ),
            (
                "SELECT ?c WHERE { <http://s> a ?c }",
                ReformulationError::VariableClass,
            ),
            (
                "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?c WHERE { ?c rdfs:subClassOf ?d }",
                ReformulationError::SchemaProperty(f.vocab.sub_class_of),
            ),
        ] {
            let q = parse_query(src, &mut f.dict).unwrap();
            assert_eq!(reformulate(&q, &schema, &f.vocab).unwrap_err(), want);
        }
    }

    #[test]
    fn fresh_variables_are_named_and_not_projected() {
        let mut f = setup(UNIVERSITY);
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Employee }",
            &mut f.dict,
        )
        .unwrap();
        let schema = Schema::extract(&f.g, &f.vocab);
        let r = reformulate(&q, &schema, &f.vocab).unwrap();
        assert!(
            r.query.var_names.len() > q.var_names.len(),
            "fresh vars added"
        );
        assert_eq!(r.query.projection, q.projection, "projection unchanged");
        assert!(r.query.distinct, "answer-set semantics");
        // serialises and parses back
        let text = r.query.to_sparql(&f.dict);
        let reparsed = parse_query(&text, &mut f.dict).unwrap();
        assert_eq!(reparsed.bgps.len(), r.branches);
    }

    #[test]
    fn union_input_query_is_supported() {
        let mut f = setup(ZOO);
        let r = assert_contract(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x a ex:Cat } UNION { ?x a ex:Dog } }",
        );
        assert_eq!(r.branches, 2);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rdf_model::Triple;
        use sparql::Variable;

        /// Random fragment instances: schema + data + a random 1–3 atom query.
        #[derive(Debug, Clone)]
        struct Case {
            sub_class: Vec<(u8, u8)>,
            sub_prop: Vec<(u8, u8)>,
            domain: Vec<(u8, u8)>,
            range: Vec<(u8, u8)>,
            facts: Vec<(u8, u8, u8)>,
            types: Vec<(u8, u8)>,
            query_atoms: Vec<(u8, u8, u8, bool)>, // (s, p_or_class, o, is_type_atom)
        }

        fn arb_case() -> impl Strategy<Value = Case> {
            (
                proptest::collection::vec((0u8..5, 0u8..5), 0..6),
                proptest::collection::vec((0u8..4, 0u8..4), 0..4),
                proptest::collection::vec((0u8..4, 0u8..5), 0..4),
                proptest::collection::vec((0u8..4, 0u8..5), 0..4),
                proptest::collection::vec((0u8..6, 0u8..4, 0u8..6), 0..15),
                proptest::collection::vec((0u8..6, 0u8..5), 0..8),
                proptest::collection::vec((0u8..3, 0u8..5, 0u8..3, proptest::bool::ANY), 1..4),
            )
                .prop_map(
                    |(sub_class, sub_prop, domain, range, facts, types, query_atoms)| Case {
                        sub_class,
                        sub_prop,
                        domain,
                        range,
                        facts,
                        types,
                        query_atoms,
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// The reformulation contract on random schemas, data and queries:
            /// q_ref(G) = q(G∞).
            #[test]
            fn contract_holds(case in arb_case()) {
                let mut dict = Dictionary::new();
                let vocab = Vocab::intern(&mut dict);
                let class = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/C{i}"));
                let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
                let node = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
                let mut g = Graph::new();
                for &(a, b) in &case.sub_class {
                    let t = Triple::new(class(&mut dict, a), vocab.sub_class_of, class(&mut dict, b));
                    g.insert(t);
                }
                for &(a, b) in &case.sub_prop {
                    let t = Triple::new(prop(&mut dict, a), vocab.sub_property_of, prop(&mut dict, b));
                    g.insert(t);
                }
                for &(p, c) in &case.domain {
                    let t = Triple::new(prop(&mut dict, p), vocab.domain, class(&mut dict, c));
                    g.insert(t);
                }
                for &(p, c) in &case.range {
                    let t = Triple::new(prop(&mut dict, p), vocab.range, class(&mut dict, c));
                    g.insert(t);
                }
                for &(s, p, o) in &case.facts {
                    let t = Triple::new(node(&mut dict, s), prop(&mut dict, p), node(&mut dict, o));
                    g.insert(t);
                }
                for &(s, c) in &case.types {
                    let t = Triple::new(node(&mut dict, s), vocab.rdf_type, class(&mut dict, c));
                    g.insert(t);
                }

                // Build the query: variables 0..=5 shared across atoms so the
                // random BGPs join.
                let mut patterns = Vec::new();
                for &(s, pc, o, is_type) in &case.query_atoms {
                    let sv = QTerm::Var(Variable(s as u16));
                    if is_type {
                        patterns.push(TriplePattern::new(
                            sv,
                            QTerm::Const(vocab.rdf_type),
                            QTerm::Const(class(&mut dict, pc % 5)),
                        ));
                    } else {
                        patterns.push(TriplePattern::new(
                            sv,
                            QTerm::Const(prop(&mut dict, pc % 4)),
                            QTerm::Var(Variable(o as u16)),
                        ));
                    }
                }
                let used: FxHashSet<u16> = patterns
                    .iter()
                    .flat_map(|tp: &TriplePattern| tp.variables())
                    .map(|v| v.0)
                    .collect();
                let max_var = *used.iter().max().unwrap() as usize;
                let var_names: Vec<String> = (0..=max_var).map(|i| format!("v{i}")).collect();
                let projection: Vec<Variable> = {
                    let mut u: Vec<u16> = used.into_iter().collect();
                    u.sort();
                    u.into_iter().map(Variable).collect()
                };
                let q = Query::conjunctive(var_names, projection, true, Bgp::new(patterns));

                let schema = Schema::extract(&g, &vocab);
                let r = reformulate(&q, &schema, &vocab).expect("dialect is supported");
                let sat = saturate(&g, &vocab).graph;
                let want = evaluate(&sat, &q).as_set();
                let got = evaluate(&g, &r.query).as_set();
                prop_assert_eq!(got, want);
            }
        }
    }
}
