//! Conjunctive-query containment, minimisation and union pruning.
//!
//! "Reformulated queries are often syntactically more complex than the
//! original, thus their evaluation may be costly" (§II-B) — and
//! "efficiently evaluating large, complex reformulated RDF queries" is one
//! of the paper's open problems (§II-D). This module applies the classical
//! CQ-containment toolbox to shrink `q_ref` before evaluation:
//!
//! * [`homomorphism`] — decides `answers(to) ⊆ answers(from)` by searching
//!   a homomorphism `from → to` that fixes the answer variables
//!   (Chandra–Merlin);
//! * [`minimize`] — replaces a BGP by its *core*: atoms that fold into the
//!   rest (typically carrying only fresh existential variables) are
//!   removed;
//! * [`prune_subsumed`] — drops union branches whose answers are already
//!   produced by a more general branch;
//! * [`drop_entailed`] — drops atoms another atom of the same BGP entails
//!   under the closed schema: the interval rewriter's containment step,
//!   taken before the rewriting instead of over the union it produces.
//!
//! All four preserve answer-set semantics, which the reformulation
//! contract (`q_ref(G) = q(G∞)`) is property-tested under.

use rdf_model::Vocab;
use rdfs::Schema;
use rustc_hash::FxHashSet;
use sparql::{Bgp, QTerm, TriplePattern, Variable};

/// A partial variable mapping for the backtracking search.
#[derive(Default)]
struct Mapping {
    pairs: Vec<(Variable, QTerm)>,
}

impl Mapping {
    fn get(&self, v: Variable) -> Option<QTerm> {
        self.pairs
            .iter()
            .find(|(from, _)| *from == v)
            .map(|(_, to)| *to)
    }

    /// Tries to extend the mapping with `v ↦ target`; returns whether it
    /// was newly added (for backtracking).
    fn bind(&mut self, v: Variable, target: QTerm, fixed: &FxHashSet<Variable>) -> Option<bool> {
        if fixed.contains(&v) {
            // Answer variables must map to themselves.
            return if target == QTerm::Var(v) {
                Some(false)
            } else {
                None
            };
        }
        match self.get(v) {
            Some(existing) => (existing == target).then_some(false),
            None => {
                self.pairs.push((v, target));
                Some(true)
            }
        }
    }

    fn unbind(&mut self, v: Variable) {
        self.pairs.retain(|(from, _)| *from != v);
    }
}

/// Tries to map one position of an atom. Returns `Some(newly_bound)` on
/// success.
fn match_term(
    from: QTerm,
    to: QTerm,
    mapping: &mut Mapping,
    fixed: &FxHashSet<Variable>,
) -> Option<Option<Variable>> {
    match from {
        QTerm::Const(c) => (to == QTerm::Const(c)).then_some(None),
        QTerm::Var(v) => mapping.bind(v, to, fixed).map(|new| new.then_some(v)),
    }
}

fn match_atoms(
    from: &TriplePattern,
    to: &TriplePattern,
    mapping: &mut Mapping,
    fixed: &FxHashSet<Variable>,
) -> Option<Vec<Variable>> {
    let mut bound = Vec::new();
    for (f, t) in [(from.s, to.s), (from.p, to.p), (from.o, to.o)] {
        match match_term(f, t, mapping, fixed) {
            Some(Some(v)) => bound.push(v),
            Some(None) => {}
            None => {
                for v in bound {
                    mapping.unbind(v);
                }
                return None;
            }
        }
    }
    Some(bound)
}

fn search(
    from_atoms: &[TriplePattern],
    to: &Bgp,
    idx: usize,
    mapping: &mut Mapping,
    fixed: &FxHashSet<Variable>,
) -> bool {
    let Some(atom) = from_atoms.get(idx) else {
        return true;
    };
    for target in &to.patterns {
        if let Some(bound) = match_atoms(atom, target, mapping, fixed) {
            if search(from_atoms, to, idx + 1, mapping, fixed) {
                return true;
            }
            for v in bound {
                mapping.unbind(v);
            }
        }
    }
    false
}

/// True if there is a homomorphism `from → to` fixing the variables in
/// `fixed` — i.e. every answer of `to` is an answer of `from`
/// (`answers(to) ⊆ answers(from)` under set semantics).
pub fn homomorphism(from: &Bgp, to: &Bgp, fixed: &FxHashSet<Variable>) -> bool {
    let mut mapping = Mapping::default();
    search(&from.patterns, to, 0, &mut mapping, fixed)
}

/// Replaces `bgp` by an equivalent core: repeatedly drops any atom whose
/// removal leaves an equivalent query (the remainder must map
/// homomorphically onto itself with the atom restored — equivalently, the
/// full BGP must fold into the remainder).
pub fn minimize(bgp: &Bgp, fixed: &FxHashSet<Variable>) -> Bgp {
    let mut atoms = bgp.patterns.clone();
    atoms.sort();
    atoms.dedup();
    loop {
        let mut changed = false;
        for i in 0..atoms.len() {
            if atoms.len() == 1 {
                break;
            }
            let mut candidate = atoms.clone();
            candidate.remove(i);
            let candidate = Bgp {
                patterns: candidate,
            };
            // candidate ⊆ full always (fewer atoms). full ⊆ candidate iff
            // hom full → candidate. Then they are equivalent.
            if homomorphism(
                &Bgp {
                    patterns: atoms.clone(),
                },
                &candidate,
                fixed,
            ) {
                atoms = candidate.patterns;
                changed = true;
                break;
            }
        }
        if !changed {
            return Bgp { patterns: atoms };
        }
    }
}

/// Removes union branches subsumed by another branch: branch `b` is
/// dropped when some other kept branch `a` satisfies `answers(b) ⊆
/// answers(a)` (homomorphism `a → b`). Returns the number removed.
pub fn prune_subsumed(branches: &mut Vec<Bgp>, fixed: &FxHashSet<Variable>) -> usize {
    let before = branches.len();
    let mut kept: Vec<Bgp> = Vec::with_capacity(branches.len());
    // Consider more-general (smaller) branches first so they absorb the rest.
    branches.sort_by_key(|b| b.patterns.len());
    'outer: for b in branches.drain(..) {
        for a in &kept {
            if homomorphism(a, &b, fixed) {
                continue 'outer; // b's answers ⊆ a's
            }
        }
        kept.push(b);
    }
    *branches = kept;
    branches.sort();
    before - branches.len()
}

/// Whether atom `by` entails atom `a` under the closed `schema`: every
/// triple matching `by` in `G∞` puts `a`'s triple (same bindings) in `G∞`.
fn entails(by: &TriplePattern, a: &TriplePattern, schema: &Schema, vocab: &Vocab) -> bool {
    let (QTerm::Const(p), QTerm::Const(ap)) = (by.p, a.p) else {
        return false;
    };
    if ap != vocab.rdf_type {
        // rdfs7: `s P' o` entails `s P o` for P' ⊑ P.
        return by.s == a.s && by.o == a.o && schema.sub_properties(ap).contains(&p);
    }
    let QTerm::Const(class) = a.o else {
        return false;
    };
    // rdfs9: `s rdf:type C'` with C' ⊑ C.
    (p == vocab.rdf_type
        && by.s == a.s
        && by.o.as_const().is_some_and(|c| schema.sub_classes(class).contains(&c)))
        // rdfs2: `s P o` with C a (closed) domain of P.
        || (by.s == a.s && schema.domains(p).contains(&class))
        // rdfs3: `o' P s` with C a (closed) range of P.
        || (by.o == a.s && schema.ranges(p).contains(&class))
}

/// Drops from `atoms` every atom that another remaining atom entails under
/// the closed `schema`, after removing repeats; the kept atoms stay in
/// input order.
///
/// Atoms are removed one at a time, each checked against the atoms still
/// remaining, so a cycle (`p0 ⊑ p1 ⊑ p0`) keeps exactly one of its atoms.
/// Sound under answer-set semantics: every variable of a dropped atom
/// occurs in the atom entailing it, so the remaining conjunction has the
/// same answers over `G∞`.
pub(crate) fn drop_entailed(
    atoms: &[TriplePattern],
    schema: &Schema,
    vocab: &Vocab,
) -> Vec<TriplePattern> {
    let mut kept: Vec<TriplePattern> = Vec::with_capacity(atoms.len());
    for tp in atoms {
        if !kept.contains(tp) {
            kept.push(*tp);
        }
    }
    let mut i = 0;
    while i < kept.len() {
        let a = &kept[i];
        let entailed = kept
            .iter()
            .enumerate()
            .any(|(j, by)| j != i && entails(by, a, schema, vocab));
        if entailed {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dictionary, TermId};

    struct Fx {
        dict: Dictionary,
    }

    impl Fx {
        fn new() -> Self {
            Fx {
                dict: Dictionary::new(),
            }
        }
        fn c(&mut self, n: &str) -> QTerm {
            QTerm::Const(self.dict.encode_iri(&format!("http://ex/{n}")))
        }
    }

    fn v(i: u16) -> QTerm {
        QTerm::Var(Variable(i))
    }

    fn fixed(vars: &[u16]) -> FxHashSet<Variable> {
        vars.iter().map(|&i| Variable(i)).collect()
    }

    #[test]
    fn identical_bgps_are_mutually_contained() {
        let mut f = Fx::new();
        let p = f.c("p");
        let b = Bgp::new(vec![TriplePattern::new(v(0), p, v(1))]);
        assert!(homomorphism(&b, &b, &fixed(&[0, 1])));
    }

    #[test]
    fn general_contains_specific() {
        let mut f = Fx::new();
        let p = f.c("p");
        let a = f.c("a");
        // from: ?x p ?y(existential)   to: ?x p a   — hom maps y→a
        let general = Bgp::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let specific = Bgp::new(vec![TriplePattern::new(v(0), p, a)]);
        assert!(homomorphism(&general, &specific, &fixed(&[0])));
        assert!(
            !homomorphism(&specific, &general, &fixed(&[0])),
            "constants don't generalise"
        );
    }

    #[test]
    fn answer_variables_must_be_fixed() {
        let mut f = Fx::new();
        let p = f.c("p");
        let a = f.c("a");
        let general = Bgp::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let specific = Bgp::new(vec![TriplePattern::new(v(0), p, a)]);
        // If ?y is an answer variable it cannot be mapped to the constant.
        assert!(!homomorphism(&general, &specific, &fixed(&[0, 1])));
    }

    #[test]
    fn distinct_constants_block_containment() {
        let mut f = Fx::new();
        let (ty, cat, mammal) = (f.c("type"), f.c("Cat"), f.c("Mammal"));
        let b1 = Bgp::new(vec![TriplePattern::new(v(0), ty, mammal)]);
        let b2 = Bgp::new(vec![TriplePattern::new(v(0), ty, cat)]);
        assert!(!homomorphism(&b1, &b2, &fixed(&[0])));
        assert!(!homomorphism(&b2, &b1, &fixed(&[0])));
        let mut branches = vec![b1, b2];
        assert_eq!(prune_subsumed(&mut branches, &fixed(&[0])), 0);
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn minimize_folds_redundant_existentials() {
        let mut f = Fx::new();
        let p = f.c("p");
        // ?x p ?y(answer) ∧ ?x p ?z(fresh) — the second atom folds onto the first.
        let b = Bgp::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(0), p, v(2)),
        ]);
        let core = minimize(&b, &fixed(&[0, 1]));
        assert_eq!(core.patterns.len(), 1);
        assert_eq!(core.patterns[0], TriplePattern::new(v(0), p, v(1)));
    }

    #[test]
    fn minimize_keeps_joined_atoms() {
        let mut f = Fx::new();
        let p = f.c("p");
        let q = f.c("q");
        // a genuine 2-hop join cannot shrink
        let b = Bgp::new(vec![
            TriplePattern::new(v(0), p, v(2)),
            TriplePattern::new(v(2), q, v(1)),
        ]);
        assert_eq!(minimize(&b, &fixed(&[0, 1])).patterns.len(), 2);
    }

    #[test]
    fn minimize_handles_chains_of_fresh_vars() {
        let mut f = Fx::new();
        let p = f.c("p");
        // ?x p ?f1 ∧ ?f1 p ?f2 — all existential beyond ?x: this is a real
        // 2-path constraint and must NOT fold to 1 atom (no hom from the
        // 2-atom query into the 1-atom one maps both atoms consistently…
        // actually ?f1↦?f1, both atoms need (x p f1) and (f1 p f2): hom to
        // {x p f1} requires f1↦f1 and f1↦x simultaneously — blocked unless
        // a self-loop pattern exists).
        let b = Bgp::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(1), p, v(2)),
        ]);
        assert_eq!(minimize(&b, &fixed(&[0])).patterns.len(), 2);
    }

    #[test]
    fn prune_removes_specialisations() {
        let mut f = Fx::new();
        let p = f.c("p");
        let sub = f.c("sub");
        let general = Bgp::new(vec![TriplePattern::new(v(0), p, v(1))]);
        let special = Bgp::new(vec![
            TriplePattern::new(v(0), p, v(1)),
            TriplePattern::new(v(0), sub, v(2)),
        ]);
        let mut branches = vec![special.clone(), general.clone()];
        let removed = prune_subsumed(&mut branches, &fixed(&[0, 1]));
        assert_eq!(removed, 1);
        assert_eq!(branches, vec![general]);
    }

    #[test]
    fn self_join_patterns() {
        let mut f = Fx::new();
        let p = f.c("p");
        // ?x p ?x is NOT contained in ?x p ?y(existential)? It is: y↦x.
        let loop_q = Bgp::new(vec![TriplePattern::new(v(0), p, v(0))]);
        let edge_q = Bgp::new(vec![TriplePattern::new(v(0), p, v(1))]);
        assert!(homomorphism(&edge_q, &loop_q, &fixed(&[0])));
        assert!(
            !homomorphism(&loop_q, &edge_q, &fixed(&[0])),
            "loop is stricter"
        );
    }

    // The TermId import is used by Fx through Dictionary.
    #[allow(dead_code)]
    fn _t(_: TermId) {}
}
