//! Join-order planning: the one planner every answer path uses.
//!
//! The executor is an index nested-loop join: atoms are matched one after
//! another, each probe constrained by the bindings produced so far.
//! Ordering dominates cost, so the planner picks a greedy order:
//!
//! 1. estimate each atom's result cardinality from exact index counts
//!    (constants bound) discounted by the selectivity of already-bound
//!    variables (System-R style `1/V(attr)` with `V` approximated by the
//!    graph's distinct subject/property/object counts), and scaled by the
//!    fraction of a position's distinct values a hierarchy range admits;
//! 2. repeatedly choose the cheapest atom *connected* to the variables
//!    bound so far (avoiding cartesian products unless forced).
//!
//! A [`TriplePattern`](crate::TriplePattern) is planned as a
//! [`RangeAtom`] without a range position, so BGPs and interval branches
//! share one estimate and one order. Exposed separately from evaluation
//! so the benches can measure the planned-vs-unplanned gap (an ablation
//! called out in DESIGN.md).

use crate::ast::{Bgp, Variable};
use crate::range_eval::{RTerm, RangeAtom};
use rdf_model::{Graph, IntervalSet, Pattern};
use rustc_hash::FxHashSet;

/// A join order for one BGP, with the planner's cardinality estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBgp {
    /// Indexes into `bgp.patterns`, in evaluation order.
    pub order: Vec<usize>,
    /// The estimate used when each pattern was chosen (parallel to `order`).
    pub estimates: Vec<f64>,
}

/// Distinct-value counts used as `V(attr)` in the selectivity discounts.
///
/// The graph maintains them, so [`DistinctCounts::of`] is O(1); callers
/// planning many BGPs over the same graph (a reformulated union can have
/// hundreds of branches) still compute them once and reuse them via
/// [`plan_bgp_with`].
pub struct DistinctCounts {
    subjects: f64,
    properties: f64,
    objects: f64,
}

impl DistinctCounts {
    /// Reads the distinct subject/property/object counts of `g`.
    pub fn of(g: &Graph) -> Self {
        DistinctCounts {
            subjects: g.subject_count().max(1) as f64,
            properties: g.property_count().max(1) as f64,
            objects: g.object_count().max(1) as f64,
        }
    }
}

/// Estimated number of matches of `atom` given the variables in `bound`
/// are already fixed (to unknown values): the exact count of the constant
/// skeleton (ranges count as wildcards), divided by `V(position)` per
/// bound-variable position and scaled by `|range| / V(position)` per range
/// position.
fn estimate(
    g: &Graph,
    dc: &DistinctCounts,
    atom: &RangeAtom,
    ranges: &[IntervalSet],
    bound: &FxHashSet<Variable>,
) -> f64 {
    let as_const = |t: RTerm| match t {
        RTerm::Const(c) => Some(c),
        _ => None,
    };
    let skeleton = Pattern::new(as_const(atom.s), as_const(atom.p), as_const(atom.o));
    let mut est = g.count(&skeleton) as f64;
    for (t, distinct) in [
        (atom.s, dc.subjects),
        (atom.p, dc.properties),
        (atom.o, dc.objects),
    ] {
        match t {
            RTerm::Var(v) if bound.contains(&v) => est /= distinct,
            RTerm::Range(r) => est *= (ranges[usize::from(r)].len() as f64 / distinct).min(1.0),
            _ => {}
        }
    }
    est
}

/// Computes a greedy join order for `bgp` over `g`.
pub fn plan_bgp(g: &Graph, bgp: &Bgp) -> PlannedBgp {
    plan_bgp_with(g, &DistinctCounts::of(g), bgp)
}

/// [`plan_bgp`] with precomputed distinct-value counts, so a union of many
/// branches pays the graph walk once instead of once per branch.
pub fn plan_bgp_with(g: &Graph, dc: &DistinctCounts, bgp: &Bgp) -> PlannedBgp {
    plan_atoms(g, dc, &bgp.patterns, &[])
}

/// The greedy join order of one conjunctive branch whose range positions
/// index into `ranges`.
pub(crate) fn plan_atoms<A: Copy + Into<RangeAtom>>(
    g: &Graph,
    dc: &DistinctCounts,
    atoms: &[A],
    ranges: &[IntervalSet],
) -> PlannedBgp {
    let atom = |i: usize| -> RangeAtom { atoms[i].into() };
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut order = Vec::with_capacity(atoms.len());
    let mut estimates = Vec::with_capacity(atoms.len());
    let mut bound: FxHashSet<Variable> = FxHashSet::default();

    while !remaining.is_empty() {
        // Prefer connected (or ground) atoms; fall back to any.
        let mut candidates: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let vars = atom(i).variables();
                vars.is_empty() || vars.iter().any(|v| bound.contains(v)) || bound.is_empty()
            })
            .collect();
        if candidates.is_empty() {
            candidates.clone_from(&remaining);
        }
        let (best, best_est) = candidates
            .iter()
            .map(|&i| (i, estimate(g, dc, &atom(i), ranges, &bound)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("candidates nonempty");
        remaining.retain(|&i| i != best);
        bound.extend(atom(best).variables());
        order.push(best);
        estimates.push(best_est);
    }
    PlannedBgp { order, estimates }
}

/// The trivial left-to-right order, used as the ablation baseline.
pub fn plan_textual(bgp: &Bgp) -> PlannedBgp {
    let order: Vec<usize> = (0..bgp.patterns.len()).collect();
    let estimates = vec![f64::NAN; bgp.patterns.len()];
    PlannedBgp { order, estimates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{QTerm, TriplePattern};
    use rdf_model::{Dictionary, TermId, Triple};

    fn build() -> (Dictionary, Graph, TermId, TermId, TermId) {
        let mut d = Dictionary::new();
        let rare = d.encode_iri("http://ex/rare");
        let common = d.encode_iri("http://ex/common");
        let ty = d.encode_iri("http://ex/type");
        let mut g = Graph::new();
        // 1 rare triple, 100 common ones, 50 typed subjects
        let a = d.encode_iri("http://ex/a");
        let b = d.encode_iri("http://ex/b");
        g.insert(Triple::new(a, rare, b));
        for i in 0..100 {
            let s = d.encode_iri(&format!("http://ex/s{i}"));
            let o = d.encode_iri(&format!("http://ex/o{}", i % 10));
            g.insert(Triple::new(s, common, o));
            if i < 50 {
                g.insert(Triple::new(s, ty, b));
            }
        }
        (d, g, rare, common, ty)
    }

    fn var(i: u16) -> QTerm {
        QTerm::Var(Variable(i))
    }

    #[test]
    fn selective_pattern_goes_first() {
        let (_, g, rare, common, _) = build();
        let bgp = Bgp::new(vec![
            TriplePattern::new(var(0), QTerm::Const(common), var(1)),
            TriplePattern::new(var(0), QTerm::Const(rare), var(2)),
        ]);
        let plan = plan_bgp(&g, &bgp);
        assert_eq!(
            plan.order[0], 1,
            "rare pattern (1 match) before common (100)"
        );
        assert_eq!(plan.estimates[0], 1.0, "exact count of the rare skeleton");
    }

    #[test]
    fn connectivity_beats_raw_cardinality() {
        let (_, g, rare, common, ty) = build();
        // pattern 0: rare (1 match), pattern 1: type (50), pattern 2: common (100)
        // After rare binds ?x, the planner must continue with a *connected*
        // pattern even though the disconnected one might look similar.
        let bgp = Bgp::new(vec![
            TriplePattern::new(var(0), QTerm::Const(rare), var(1)),
            TriplePattern::new(var(2), QTerm::Const(ty), var(3)),
            TriplePattern::new(var(0), QTerm::Const(common), var(4)),
        ]);
        let plan = plan_bgp(&g, &bgp);
        assert_eq!(plan.order[0], 0);
        assert_eq!(
            plan.order[1], 2,
            "stay connected to ?x before jumping to the cartesian part"
        );
    }

    #[test]
    fn ground_patterns_are_free() {
        let (mut d, g, rare, common, _) = build();
        let a = d.encode_iri("http://ex/a");
        let b = d.encode_iri("http://ex/b");
        let bgp = Bgp::new(vec![
            TriplePattern::new(var(0), QTerm::Const(common), var(1)),
            TriplePattern::new(QTerm::Const(a), QTerm::Const(rare), QTerm::Const(b)),
        ]);
        let plan = plan_bgp(&g, &bgp);
        assert_eq!(plan.order[0], 1, "membership test first");
    }

    #[test]
    fn plan_covers_all_patterns_exactly_once() {
        let (_, g, rare, common, ty) = build();
        let bgp = Bgp::new(vec![
            TriplePattern::new(var(0), QTerm::Const(common), var(1)),
            TriplePattern::new(var(1), QTerm::Const(ty), var(2)),
            TriplePattern::new(var(2), QTerm::Const(rare), var(3)),
            TriplePattern::new(var(3), QTerm::Const(common), var(0)),
        ]);
        let plan = plan_bgp(&g, &bgp);
        let mut seen: Vec<usize> = plan.order.clone();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(plan.estimates.len(), 4);
    }

    #[test]
    fn empty_bgp_plans_empty() {
        let (_, g, ..) = build();
        let plan = plan_bgp(&g, &Bgp::default());
        assert!(plan.order.is_empty());
        assert_eq!(plan_textual(&Bgp::default()).order.len(), 0);
    }

    #[test]
    fn textual_plan_is_identity() {
        let (_, _, rare, common, _) = build();
        let bgp = Bgp::new(vec![
            TriplePattern::new(var(0), QTerm::Const(common), var(1)),
            TriplePattern::new(var(0), QTerm::Const(rare), var(2)),
        ]);
        assert_eq!(plan_textual(&bgp).order, vec![0, 1]);
    }
}
