//! Interval reformulation: rewriting a query against the hierarchy
//! intervals of an [`IntervalDict`] instead of into a union of BGPs.
//!
//! Classical reformulation ([`crate::reformulate`]) applies the RDFS
//! rules backwards until fixpoint, producing one union branch per derived
//! atom. With a LiteMat interval encoding the same rule set collapses
//! into *per-atom alternatives* over interval sets, because the closed
//! schema maps make every backward chain a single step:
//!
//! | atom | union branches | interval alternatives |
//! |------|----------------|----------------------|
//! | `x rdf:type C` | one per subclass (rdfs9) | one range atom over `coverage(C)` in the object position |
//! |                | one per domain property (rdfs2 ∘ rdfs7) | one range atom over all properties whose closed domain contains `C`, with a fresh object |
//! |                | one per range property (rdfs3 ∘ rdfs7) | symmetric, with a fresh subject |
//! | `x P y` | one per subproperty (rdfs7) | one range atom over `coverage(P)` in the property position |
//!
//! The closed [`Schema`] maps guarantee single-step completeness:
//! `properties_with_domain(C)` already contains every subproperty of a
//! property whose declared domain is any subclass of `C` (domains are
//! lifted up the class hierarchy and inherited down the property
//! hierarchy), so no fixpoint iteration is needed. The cross product of
//! the per-atom alternative lists gives at most 3^|atoms| interval
//! branches — versus the O(hierarchy^|atoms|) union branches — and the
//! union branches each alternative replaces partition the matching
//! triples by their concrete term, so the produced bag of answers equals
//! the union evaluator's.
//!
//! Before any alternative is built, atoms another atom of the same BGP
//! entails under the schema are dropped ([`drop_entailed`]), so a type
//! atom implied by a property atom's domain or range costs no branches.

use crate::{check_dialect, containment::drop_entailed, ReformulationError};
use rdf_model::{IntervalDict, IntervalSet, TermId, Vocab};
use rdfs::Schema;
use rustc_hash::FxHashMap;
use sparql::{IntervalQuery, QTerm, Query, RTerm, RangeAtom, RangeBgp, TriplePattern, Variable};
use std::sync::Arc;

/// Interns interval sets so identical ranges share one table slot.
struct RangeTable {
    sets: Vec<IntervalSet>,
    index: FxHashMap<IntervalSet, u16>,
}

impl RangeTable {
    fn new() -> Self {
        RangeTable {
            sets: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    fn intern(&mut self, set: IntervalSet) -> u16 {
        if let Some(&i) = self.index.get(&set) {
            return i;
        }
        let i = self.sets.len() as u16;
        self.index.insert(set.clone(), i);
        self.sets.push(set);
        i
    }
}

fn rterm(t: QTerm) -> RTerm {
    match t {
        QTerm::Var(v) => RTerm::Var(v),
        QTerm::Const(c) => RTerm::Const(c),
    }
}

/// Rewrites `q` into an [`IntervalQuery`] over `idict`, the interval
/// sidecar of `schema`. Accepts exactly the dialect [`crate::reformulate`]
/// accepts and produces the same answers (`q_int(G) = q_ref(G) = q(G∞)`),
/// with hierarchy unions replaced by range-scan atoms.
pub fn reformulate_intervals(
    q: &Query,
    schema: &Schema,
    vocab: &Vocab,
    idict: Arc<IntervalDict>,
) -> Result<IntervalQuery, ReformulationError> {
    if !q.not_exists.is_empty() {
        return Err(ReformulationError::Negation);
    }
    for bgp in &q.bgps {
        check_dialect(bgp, vocab)?;
    }

    let mut var_names = q.var_names.clone();
    let fresh = |var_names: &mut Vec<String>| -> Variable {
        let v = Variable(var_names.len() as u16);
        var_names.push(format!("_i{}", var_names.len() - q.var_names.len()));
        v
    };
    let mut table = RangeTable::new();
    let mut branches: Vec<RangeBgp> = Vec::new();
    let mut union_branches: usize = 0;
    let mut atoms_entailed: usize = 0;
    // How many branches classical reformulation derives from one atom.
    let coverage_len = |t: TermId| idict.coverage(t).map_or(1, |cov| cov.len().max(1));
    let atom_unions = |tp: &TriplePattern| match tp.p {
        QTerm::Const(p) if p == vocab.rdf_type => {
            let class = tp.o.as_const().expect("dialect check admits const classes");
            coverage_len(class)
                + schema.properties_with_domain(class).len()
                + schema.properties_with_range(class).len()
        }
        QTerm::Const(p) => coverage_len(p),
        QTerm::Var(_) => unreachable!("dialect check rejects variable properties"),
    };

    for bgp in &q.bgps {
        // `union_branches` counts the raw per-atom rewriting product of
        // the *input* BGP, before entailed atoms are dropped and before
        // core minimisation — what the hierarchy unions would have cost.
        union_branches = union_branches.saturating_add(
            bgp.patterns
                .iter()
                .fold(1usize, |n, tp| n.saturating_mul(atom_unions(tp))),
        );
        let kept = drop_entailed(&bgp.patterns, schema, vocab);
        atoms_entailed += bgp.patterns.len() - kept.len();

        // Per-atom alternative lists; the branch set is their cross
        // product.
        let mut alts_per_atom: Vec<Vec<RangeAtom>> = Vec::new();
        for tp in &kept {
            let s = rterm(tp.s);
            let o = rterm(tp.o);
            let mut alts: Vec<RangeAtom> = Vec::new();
            let range_of = |t: TermId, table: &mut RangeTable| match idict.coverage(t) {
                Some(cov) if cov.len() > 1 => RTerm::Range(table.intern(cov.clone())),
                _ => RTerm::Const(t),
            };
            match tp.p {
                QTerm::Const(p) if p == vocab.rdf_type => {
                    let class = tp.o.as_const().expect("dialect check admits const classes");
                    // rdfs9 collapsed: C ∪ subclasses as one object range.
                    alts.push(RangeAtom {
                        s,
                        p: RTerm::Const(p),
                        o: range_of(class, &mut table),
                    });
                    // rdfs2 ∘ rdfs7 collapsed: all properties whose closed
                    // domain contains C, as one property range with a
                    // fresh object; rdfs3 ∘ rdfs7 is its mirror with a
                    // fresh subject. The two alternatives never share a
                    // branch, so they share one fresh variable.
                    let mut fresh_var: Option<Variable> = None;
                    let prop_range = |props: &rustc_hash::FxHashSet<TermId>,
                                      table: &mut RangeTable|
                     -> Option<RTerm> {
                        if props.is_empty() {
                            return None;
                        }
                        let ids: Vec<u32> = props
                            .iter()
                            .filter_map(|&pp| idict.interval_id(pp))
                            .collect();
                        debug_assert_eq!(
                            ids.len(),
                            props.len(),
                            "every schema property is interval-encoded"
                        );
                        Some(RTerm::Range(table.intern(IntervalSet::from_ids(ids))))
                    };
                    if let Some(pr) = prop_range(schema.properties_with_domain(class), &mut table) {
                        let y = *fresh_var.get_or_insert_with(|| fresh(&mut var_names));
                        alts.push(RangeAtom {
                            s,
                            p: pr,
                            o: RTerm::Var(y),
                        });
                    }
                    if let Some(pr) = prop_range(schema.properties_with_range(class), &mut table) {
                        let y = *fresh_var.get_or_insert_with(|| fresh(&mut var_names));
                        alts.push(RangeAtom {
                            s: RTerm::Var(y),
                            p: pr,
                            o: s,
                        });
                    }
                }
                QTerm::Const(p) => {
                    // rdfs7 collapsed: P ∪ subproperties as one property range.
                    alts.push(RangeAtom {
                        s,
                        p: range_of(p, &mut table),
                        o,
                    });
                }
                QTerm::Var(_) => unreachable!("dialect check rejects variable properties"),
            }
            alts_per_atom.push(alts);
        }

        // Cross product of the alternatives (≤ 3^|atoms| branches).
        let mut combos: Vec<Vec<RangeAtom>> = vec![Vec::new()];
        for alts in &alts_per_atom {
            let mut next = Vec::with_capacity(combos.len() * alts.len());
            for combo in &combos {
                for &alt in alts {
                    let mut c = combo.clone();
                    c.push(alt);
                    next.push(c);
                }
            }
            combos = next;
        }
        branches.extend(combos.into_iter().map(|atoms| RangeBgp { atoms }));
    }

    // Canonical dedup (a union input query can repeat branches, and the
    // evaluator's bag semantics counts each branch once).
    let mut keyed: Vec<(Vec<RangeAtom>, RangeBgp)> = branches
        .into_iter()
        .map(|b| {
            let mut key = b.atoms.clone();
            key.sort();
            (key, b)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    let branches: Vec<RangeBgp> = keyed.into_iter().map(|(_, b)| b).collect();

    let branches_collapsed = union_branches.saturating_sub(branches.len());
    let query = Query {
        var_names,
        projection: q.projection.clone(),
        distinct: true,
        bgps: q.bgps.clone(),
        filters: q.filters.clone(),
        not_exists: Vec::new(),
        modifiers: q.modifiers.clone(),
        aggregate: q.aggregate.clone(),
    };
    Ok(IntervalQuery {
        query,
        branches,
        ranges: table.sets,
        union_branches,
        branches_collapsed,
        atoms_entailed,
        dict: idict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reformulate;
    use rdf_io::parse_turtle;
    use rdf_model::{Dictionary, Graph};
    use rdfs::saturate;
    use sparql::{evaluate, evaluate_interval, evaluate_union, parse_query};

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

    /// The three-way contract: q_int(G) = q_ref(G) = q(G∞) (answer sets),
    /// and q_int(G) bag-equals q_ref(G) under the union evaluator.
    fn assert_three_way(f: &mut Fx, query: &str) -> IntervalQuery {
        let q = parse_query(query, &mut f.dict).expect("query parses");
        let schema = Schema::extract(&f.g, &f.vocab);
        let idict = Arc::new(schema.interval_dict());
        let iq = reformulate_intervals(&q, &schema, &f.vocab, idict).expect("rewrites");
        let r = reformulate(&q, &schema, &f.vocab).expect("reformulates");
        let sat = saturate(&f.g, &f.vocab).graph;
        let want = evaluate(&sat, &q).as_set();
        let (int_sols, _) = evaluate_interval(&f.g, &iq);
        assert_eq!(int_sols.as_set(), want, "q_int(G) != q(G∞) for {query}");
        let (union_sols, _) = evaluate_union(&f.g, &r.query);
        assert_eq!(
            int_sols.sorted_rows(),
            union_sols.sorted_rows(),
            "interval bag != union bag for {query}"
        );
        iq
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
    fn mammal_subtree_collapses_to_one_branch() {
        let mut f = setup(ZOO);
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }",
        );
        assert_eq!(iq.branches.len(), 1, "Mammal ∪ Cat ∪ Dog is one range");
        assert_eq!(iq.union_branches, 3);
        assert_eq!(iq.branches_collapsed, 2);
    }

    #[test]
    fn domain_and_range_alternatives() {
        let mut f = setup(UNIVERSITY);
        // Person: subtree range + domain-property range (worksFor ∪ teaches).
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person }",
        );
        assert_eq!(iq.branches.len(), 2, "type range + property range");
        assert_eq!(iq.union_branches, 5);
        // Org: subtree is a single class, plus range properties.
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?y WHERE { ?y a ex:Org }",
        );
        assert_eq!(iq.branches.len(), 2);
        assert_eq!(iq.union_branches, 3);
    }

    #[test]
    fn property_atom_collapses_subproperties() {
        let mut f = setup(UNIVERSITY);
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:worksFor ?y }",
        );
        assert_eq!(iq.branches.len(), 1, "worksFor ∪ teaches is one range");
        assert_eq!(iq.branches_collapsed, 1);
    }

    #[test]
    fn join_query_cross_product_stays_small() {
        let mut f = setup(UNIVERSITY);
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:worksFor ?y . ?x a ex:Person }",
        );
        // Person is a (closed) domain of worksFor: the type atom is
        // entailed and dropped, leaving the one worksFor ∪ teaches range.
        assert_eq!(iq.branches.len(), 1);
        assert_eq!(iq.atoms_entailed, 1);
        assert!(iq.union_branches >= 10, "raw union product");
    }

    #[test]
    fn type_atoms_entailed_by_property_atoms_are_dropped() {
        let mut f = setup(UNIVERSITY);
        // Employee is worksFor's domain and Org its range: the property
        // atom entails both type atoms.
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { \
             ?x a ex:Employee . ?x ex:worksFor ?y . ?y a ex:Org }",
        );
        assert_eq!(iq.branches.len(), 1);
        assert_eq!(iq.branches[0].atoms.len(), 1);
        assert_eq!(iq.atoms_entailed, 2);
        // The counter still reports the raw product of the input BGP:
        // (Employee, Professor, worksFor, teaches) × (worksFor, teaches)
        // × (Org, worksFor, teaches).
        assert_eq!(iq.union_branches, 4 * 2 * 3);
        // A subclass atom entails its superclass atom.
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person . ?x a ex:Professor }",
        );
        assert_eq!(iq.atoms_entailed, 1);
        assert_eq!(iq.branches.len(), 1, "Professor has no domain properties");
    }

    #[test]
    fn cyclic_subproperties_keep_exactly_one_atom() {
        let mut f = setup(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:p0 rdfs:subPropertyOf ex:p1 .
            ex:p1 rdfs:subPropertyOf ex:p0 .
            ex:a ex:p0 ex:b .
            ex:c ex:p1 ex:d .
        "#,
        );
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:p0 ?y . ?x ex:p1 ?y . ?x ex:p0 ?y }",
        );
        assert_eq!(iq.atoms_entailed, 2, "one repeat, one cycle partner");
        assert_eq!(iq.branches.len(), 1);
        assert_eq!(iq.branches[0].atoms.len(), 1, "the cycle keeps one atom");
    }

    #[test]
    fn cyclic_schema_is_handled() {
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
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:B }",
        );
        assert_eq!(iq.branches.len(), 1, "the cycle is one shared coverage");
    }

    #[test]
    fn no_schema_means_identity() {
        let mut f = setup("@prefix ex: <http://ex/> .\nex:a ex:p ex:b .");
        let iq = assert_three_way(
            &mut f,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }",
        );
        assert_eq!(iq.branches.len(), 1);
        assert_eq!(iq.branches_collapsed, 0);
        assert!(iq.ranges.is_empty(), "plain constants, no ranges");
    }

    #[test]
    fn same_dialect_rejections_as_reformulate() {
        let mut f = setup(ZOO);
        let schema = Schema::extract(&f.g, &f.vocab);
        let idict = Arc::new(schema.interval_dict());
        for src in [
            "SELECT ?p WHERE { <http://s> ?p <http://o> }",
            "SELECT ?c WHERE { <http://s> a ?c }",
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?c WHERE { ?c rdfs:subClassOf ?d }",
        ] {
            let q = parse_query(src, &mut f.dict).unwrap();
            let int_err = reformulate_intervals(&q, &schema, &f.vocab, Arc::clone(&idict))
                .expect_err("rejected");
            let ref_err = reformulate(&q, &schema, &f.vocab).expect_err("rejected");
            assert_eq!(int_err, ref_err, "{src}");
        }
    }
}
