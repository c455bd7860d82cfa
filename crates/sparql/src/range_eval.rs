//! Interval (LiteMat-style) hierarchy queries.
//!
//! Reformulation turns "`?x` is a `C` *or any subclass*" into one union
//! branch per subclass. With a [`rdf_model::IntervalDict`] sidecar the
//! same semantic disjunction is a single **range atom**: a triple-pattern
//! position holding an interval set instead of a constant. This module
//! defines that query shape ([`IntervalQuery`]), its golden-plan
//! rendering, and the entry points that hand it to the one executor in
//! `union_eval`, whose probe step matches a range either by enumerating
//! its members or by filter-scanning a wildcard probe.
//!
//! The rewriting that *produces* an [`IntervalQuery`] lives in the
//! `reformulation` crate (it needs the schema); this module only needs
//! the finished ranges, so a range position never binds a variable — it
//! restricts which triples match, exactly like a constant would, but for
//! a whole subtree at once.

use crate::ast::{QTerm, Query, TriplePattern, Variable};
use crate::eval::Solutions;
use crate::plan::{plan_atoms, DistinctCounts};
use crate::union_eval::{run, try_run, EvalStats, Executable};
use rdf_model::{Graph, IntervalDict, IntervalSet, TermId, WorkerPanicked};
use smallvec::SmallVec;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// A position of a range atom: a variable, a constant, or a hierarchy
/// interval (an index into the owning query's range table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RTerm {
    /// A named variable of the original query.
    Var(Variable),
    /// A dictionary-encoded constant.
    Const(TermId),
    /// An interval set: matches any term whose interval id falls inside.
    /// Never binds a variable.
    Range(u16),
}

impl From<QTerm> for RTerm {
    fn from(t: QTerm) -> RTerm {
        match t {
            QTerm::Var(v) => RTerm::Var(v),
            QTerm::Const(c) => RTerm::Const(c),
        }
    }
}

/// One triple pattern whose positions may hold ranges — the executor's
/// only atom type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RangeAtom {
    /// Subject position.
    pub s: RTerm,
    /// Property position.
    pub p: RTerm,
    /// Object position.
    pub o: RTerm,
}

/// A triple pattern is a range atom with no range position.
impl From<TriplePattern> for RangeAtom {
    fn from(tp: TriplePattern) -> RangeAtom {
        RangeAtom {
            s: tp.s.into(),
            p: tp.p.into(),
            o: tp.o.into(),
        }
    }
}

impl RangeAtom {
    /// The three positions in s/p/o order.
    pub fn positions(&self) -> [RTerm; 3] {
        [self.s, self.p, self.o]
    }

    /// The variables of this atom, possibly repeated.
    pub fn variables(&self) -> SmallVec<[Variable; 3]> {
        self.positions()
            .iter()
            .filter_map(|t| match t {
                RTerm::Var(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Whether any position holds a range.
    pub fn has_range(&self) -> bool {
        self.positions()
            .iter()
            .any(|t| matches!(t, RTerm::Range(_)))
    }
}

/// One conjunctive branch of range atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeBgp {
    /// The conjuncts.
    pub atoms: Vec<RangeAtom>,
}

/// An interval-rewritten query: the original query's projection and
/// modifiers, a (small) union of range-atom branches, the interval sets
/// they reference, and the [`IntervalDict`] that gives the sets meaning.
#[derive(Debug, Clone)]
pub struct IntervalQuery {
    /// The source query (projection, variable names, `DISTINCT`, filters,
    /// negation, modifiers — all carried through like `reformulate`).
    pub query: Query,
    /// The union of range-atom branches.
    pub branches: Vec<RangeBgp>,
    /// The interval sets referenced by [`RTerm::Range`] indices.
    pub ranges: Vec<IntervalSet>,
    /// How many branches the classical union reformulation would hold:
    /// the raw per-atom rewriting product of the input BGPs.
    pub union_branches: usize,
    /// `union_branches` minus `branches.len()`: hierarchy unions replaced
    /// by range scans, plus the branches entailed atoms would have added.
    pub branches_collapsed: usize,
    /// Input atoms dropped before rewriting because another atom of the
    /// same BGP entails them under the schema (a repeated atom counts).
    pub atoms_entailed: usize,
    /// The interval encoding the ranges index into.
    pub dict: Arc<IntervalDict>,
}

impl IntervalQuery {
    /// Renders the planned shape of every branch with the estimates the
    /// planner chose each atom by — the golden-snapshot format of
    /// `tests/golden/planner_interval.txt`. Deterministic for a fixed
    /// graph and query.
    pub fn explain(&self, g: &Graph, dict: &rdf_model::Dictionary) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} union branches -> {} interval branches ({} collapsed, {} ranges, {} atoms entailed)",
            self.union_branches,
            self.branches.len(),
            self.branches_collapsed,
            self.ranges.len(),
            self.atoms_entailed,
        );
        let dc = DistinctCounts::of(g);
        for (bi, branch) in self.branches.iter().enumerate() {
            let _ = writeln!(out, "branch {bi}:");
            let plan = plan_atoms(g, &dc, &branch.atoms, &self.ranges, Some(&self.dict), None);
            for (step, (&i, est)) in plan.order.iter().zip(&plan.estimates).enumerate() {
                let atom = &branch.atoms[i];
                let pos = |t: RTerm| -> String {
                    match t {
                        RTerm::Var(v) => format!("?{}", self.query.var_name(v)),
                        RTerm::Const(id) => dict
                            .decode(id)
                            .map_or_else(|| format!("#{id}"), |tm| tm.to_string()),
                        RTerm::Range(r) => {
                            let set = &self.ranges[r as usize];
                            format!("[{} terms; {} runs]", set.len(), set.runs().len())
                        }
                    }
                };
                let _ = writeln!(
                    out,
                    "  {}. {} {} {}  est={est:.4}",
                    step + 1,
                    pos(atom.s),
                    pos(atom.p),
                    pos(atom.o),
                );
            }
        }
        out
    }
}

/// Evaluates an interval query with up to `threads` workers, falling back
/// to a single-threaded re-run if a worker panics (like
/// [`crate::evaluate_union`]).
pub fn evaluate_interval(
    g: &Graph,
    iq: &IntervalQuery,
    threads: NonZeroUsize,
) -> (Solutions, EvalStats) {
    run(g, Executable::Interval(iq), threads)
}

/// [`evaluate_interval`] surfacing a worker panic instead of falling back.
pub fn try_evaluate_interval(
    g: &Graph,
    iq: &IntervalQuery,
    threads: NonZeroUsize,
) -> Result<(Solutions, EvalStats), WorkerPanicked> {
    try_run(g, Executable::Interval(iq), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Bgp;
    use crate::eval::evaluate;
    use rdf_model::{Dictionary, Triple};

    /// A small zoo: `Cat ⊑ Mammal ⊑ Animal`, typed individuals, plus a
    /// `hasPet` edge. The IntervalDict covers the class hierarchy.
    struct Fixture {
        dict: Dictionary,
        g: Graph,
        rdf_type: TermId,
        animal: TermId,
        mammal: TermId,
        cat: TermId,
        idict: Arc<IntervalDict>,
    }

    fn fixture() -> Fixture {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        let rdf_type = dict.encode_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        let animal = dict.encode_iri("http://ex/Animal");
        let mammal = dict.encode_iri("http://ex/Mammal");
        let cat = dict.encode_iri("http://ex/Cat");
        for (name, class) in [("tom", cat), ("rex", mammal), ("nemo", animal)] {
            let s = dict.encode_iri(&format!("http://ex/{name}"));
            g.insert(Triple::new(s, rdf_type, class));
        }
        let idict = Arc::new(IntervalDict::build(&[(cat, mammal), (mammal, animal)], &[]));
        Fixture {
            dict,
            g,
            rdf_type,
            animal,
            mammal,
            cat,
            idict,
        }
    }

    /// `SELECT ?x WHERE { ?x rdf:type <range over class ∪ subclasses> }`
    fn type_query(f: &Fixture, class: TermId) -> IntervalQuery {
        let cov = f.idict.coverage(class).unwrap().clone();
        let union_branches = cov.len();
        let query = Query::conjunctive(
            vec!["x".into()],
            vec![Variable(0)],
            true,
            Bgp::new(vec![TriplePattern::new(
                QTerm::Var(Variable(0)),
                QTerm::Const(f.rdf_type),
                QTerm::Const(class),
            )]),
        );
        IntervalQuery {
            query,
            branches: vec![RangeBgp {
                atoms: vec![RangeAtom {
                    s: RTerm::Var(Variable(0)),
                    p: RTerm::Const(f.rdf_type),
                    o: RTerm::Range(0),
                }],
            }],
            ranges: vec![cov],
            union_branches,
            branches_collapsed: union_branches - 1,
            atoms_entailed: 0,
            dict: Arc::clone(&f.idict),
        }
    }

    #[test]
    fn range_atom_matches_whole_subtree() {
        let f = fixture();
        for (class, expect) in [(f.animal, 3), (f.mammal, 2), (f.cat, 1)] {
            let iq = type_query(&f, class);
            for t in [1usize, 2, 4] {
                let (sols, stats) = evaluate_interval(&f.g, &iq, NonZeroUsize::new(t).unwrap());
                assert_eq!(sols.len(), expect, "class coverage at {t} threads");
                assert_eq!(stats.range_scans, 1);
            }
        }
    }

    #[test]
    fn agrees_with_union_expansion() {
        let f = fixture();
        let iq = type_query(&f, f.animal);
        // Expand the range by hand into the classical union.
        let bgps: Vec<Bgp> = [f.animal, f.mammal, f.cat]
            .iter()
            .map(|&c| {
                Bgp::new(vec![TriplePattern::new(
                    QTerm::Var(Variable(0)),
                    QTerm::Const(f.rdf_type),
                    QTerm::Const(c),
                )])
            })
            .collect();
        let union = iq.query.with_bgps(bgps);
        let legacy = evaluate(&f.g, &union);
        let (got, stats) = evaluate_interval(&f.g, &iq, NonZeroUsize::MIN);
        assert_eq!(got.sorted_rows(), legacy.sorted_rows());
        assert_eq!(stats.branches_total, 1);
        assert_eq!(stats.branches_collapsed, 2);
    }

    /// A range position matches several triples for one binding (`tom`
    /// is typed `Cat` and `Mammal`, both in `Animal`'s range), so a
    /// one-branch interval query keeps its `DISTINCT` index.
    #[test]
    fn a_range_atom_still_deduplicates() {
        let mut f = fixture();
        let tom = f.dict.get_iri_id("http://ex/tom").unwrap();
        f.g.insert(Triple::new(tom, f.rdf_type, f.mammal));
        let iq = type_query(&f, f.animal);
        assert!(iq.query.distinct);
        let union = iq.query.with_bgps(
            [f.animal, f.mammal, f.cat]
                .iter()
                .map(|&c| {
                    Bgp::new(vec![TriplePattern::new(
                        QTerm::Var(Variable(0)),
                        QTerm::Const(f.rdf_type),
                        QTerm::Const(c),
                    )])
                })
                .collect(),
        );
        let want = evaluate(&f.g, &union).sorted_rows();
        assert_eq!(want.len(), 3, "tom, rex, nemo once each");
        for t in [1usize, 2] {
            let (got, _) = evaluate_interval(&f.g, &iq, NonZeroUsize::new(t).unwrap());
            assert_eq!(got.sorted_rows(), want, "{t} threads");
        }
    }

    #[test]
    fn filter_scan_and_enumerate_agree() {
        // Join through a range: ?x hasPet ?y . ?y rdf:type [Animal..] —
        // the driving decision differs with graph shape but the answers
        // must not.
        let mut f = fixture();
        let has_pet = f.dict.encode_iri("http://ex/hasPet");
        let anne = f.dict.encode_iri("http://ex/anne");
        let tom = f.dict.get_iri_id("http://ex/tom").unwrap();
        f.g.insert(Triple::new(anne, has_pet, tom));
        let cov = f.idict.coverage(f.animal).unwrap().clone();
        let query = Query::conjunctive(
            vec!["x".into(), "y".into()],
            vec![Variable(0)],
            true,
            Bgp::new(vec![
                TriplePattern::new(
                    QTerm::Var(Variable(0)),
                    QTerm::Const(has_pet),
                    QTerm::Var(Variable(1)),
                ),
                TriplePattern::new(
                    QTerm::Var(Variable(1)),
                    QTerm::Const(f.rdf_type),
                    QTerm::Const(f.animal),
                ),
            ]),
        );
        let iq = IntervalQuery {
            query,
            branches: vec![RangeBgp {
                atoms: vec![
                    RangeAtom {
                        s: RTerm::Var(Variable(0)),
                        p: RTerm::Const(has_pet),
                        o: RTerm::Var(Variable(1)),
                    },
                    RangeAtom {
                        s: RTerm::Var(Variable(1)),
                        p: RTerm::Const(f.rdf_type),
                        o: RTerm::Range(0),
                    },
                ],
            }],
            ranges: vec![cov],
            union_branches: 3,
            branches_collapsed: 2,
            atoms_entailed: 0,
            dict: Arc::clone(&f.idict),
        };
        let (sols, _) = evaluate_interval(&f.g, &iq, NonZeroUsize::MIN);
        assert_eq!(sols.len(), 1, "anne's pet tom is an animal");
    }

    #[test]
    fn range_in_property_position() {
        // ?x [p ∪ subproperties] ?y as a single range atom.
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        let knows = dict.encode_iri("http://ex/knows");
        let friend = dict.encode_iri("http://ex/hasFriend");
        let other = dict.encode_iri("http://ex/unrelated");
        let a = dict.encode_iri("http://ex/a");
        let b = dict.encode_iri("http://ex/b");
        let c = dict.encode_iri("http://ex/c");
        g.insert(Triple::new(a, friend, b));
        g.insert(Triple::new(b, knows, c));
        g.insert(Triple::new(a, other, c));
        let idict = Arc::new(IntervalDict::build(&[(friend, knows)], &[]));
        let cov = idict.coverage(knows).unwrap().clone();
        let query = Query::conjunctive(
            vec!["x".into(), "y".into()],
            vec![Variable(0), Variable(1)],
            true,
            Bgp::new(vec![TriplePattern::new(
                QTerm::Var(Variable(0)),
                QTerm::Const(knows),
                QTerm::Var(Variable(1)),
            )]),
        );
        let iq = IntervalQuery {
            query,
            branches: vec![RangeBgp {
                atoms: vec![RangeAtom {
                    s: RTerm::Var(Variable(0)),
                    p: RTerm::Range(0),
                    o: RTerm::Var(Variable(1)),
                }],
            }],
            ranges: vec![cov],
            union_branches: 2,
            branches_collapsed: 1,
            atoms_entailed: 0,
            dict: idict,
        };
        let (sols, _) = evaluate_interval(&g, &iq, NonZeroUsize::MIN);
        assert_eq!(sols.len(), 2, "knows ∪ hasFriend edges, not `unrelated`");
    }

    #[test]
    fn explain_renders_ranges() {
        let f = fixture();
        let iq = type_query(&f, f.animal);
        let text = iq.explain(&f.g, &f.dict);
        assert!(
            text.contains("3 union branches -> 1 interval branches"),
            "{text}"
        );
        assert!(text.contains("[3 terms; 1 runs]"), "{text}");
    }
}
