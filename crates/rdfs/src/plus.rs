//! RDFS-Plus: the "some of OWL's predicates" extension (§II-C).
//!
//! The paper's systems survey notes that AllegroGraph's RDFS++ "supports
//! all the RDFS predicates and some of OWL's", and Virtuoso's reasoning
//! "supports some of the RDFS and OWL predicates". This module implements
//! that extension class on top of the RDFS rules:
//!
//! * `owl:inverseOf` — `p1 owl:inverseOf p2 ∧ s p1 o ⊢ o p2 s` (and
//!   `owl:inverseOf` is itself symmetric);
//! * `owl:SymmetricProperty` — `p a owl:SymmetricProperty ∧ s p o ⊢ o p s`;
//! * `owl:TransitiveProperty` — `p a owl:TransitiveProperty ∧ s p o ∧
//!   o p z ⊢ s p z`.
//!
//! Because transitivity makes instance-level derivation chains unbounded,
//! the single-pass specialisation and the exact counting maintainer do
//! **not** extend here (their correctness rests on consequence sets being
//! computable from the closed schema alone). RDFS-Plus therefore ships
//! with the generic machinery that stays correct: a semi-naive fix-point
//! ([`saturate_plus`]) and a DRed maintainer ([`PlusMaintainer`]) —
//! property-tested equivalent to recomputation. `owl:sameAs` is out of
//! scope (it needs equivalence-class rewriting, a different mechanism;
//! documented in DESIGN.md).

use crate::incremental::{Maintainer, UpdateKind, UpdateStats};
use crate::rules::{consequences_of, one_step_derivable};
use crate::saturation::{SaturationResult, SaturationStats};
use rdf_model::{Dictionary, Graph, Term, TermId, Triple, Vocab};
use rustc_hash::{FxHashMap, FxHashSet};

/// `owl:inverseOf`.
pub const OWL_INVERSE_OF: &str = "http://www.w3.org/2002/07/owl#inverseOf";
/// `owl:SymmetricProperty`.
pub const OWL_SYMMETRIC_PROPERTY: &str = "http://www.w3.org/2002/07/owl#SymmetricProperty";
/// `owl:TransitiveProperty`.
pub const OWL_TRANSITIVE_PROPERTY: &str = "http://www.w3.org/2002/07/owl#TransitiveProperty";

/// Pre-interned ids for the supported OWL vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwlVocab {
    /// `owl:inverseOf`.
    pub inverse_of: TermId,
    /// `owl:SymmetricProperty`.
    pub symmetric_property: TermId,
    /// `owl:TransitiveProperty`.
    pub transitive_property: TermId,
}

impl OwlVocab {
    /// Interns the OWL vocabulary in `dict`.
    pub fn intern(dict: &mut Dictionary) -> Self {
        OwlVocab {
            inverse_of: dict.encode(&Term::iri(OWL_INVERSE_OF)),
            symmetric_property: dict.encode(&Term::iri(OWL_SYMMETRIC_PROPERTY)),
            transitive_property: dict.encode(&Term::iri(OWL_TRANSITIVE_PROPERTY)),
        }
    }
}

/// Immediate consequences of `t` under RDFS **plus** the OWL rules, with
/// the other premise drawn from `g` — the RDFS-Plus analogue of
/// [`crate::rules::consequences_of`].
pub fn consequences_of_plus(
    t: &Triple,
    g: &Graph,
    vocab: &Vocab,
    owl: &OwlVocab,
    mut emit: impl FnMut(Triple),
) {
    consequences_of(t, g, vocab, |_, c| emit(c));

    if t.p == owl.inverse_of {
        // owl:inverseOf is symmetric on the schema level…
        emit(Triple::new(t.o, owl.inverse_of, t.s));
        // …and flips instance edges in both directions.
        for (s, o) in g.pairs_with_property(t.s) {
            emit(Triple::new(o, t.o, s));
        }
        for (s, o) in g.pairs_with_property(t.o) {
            emit(Triple::new(o, t.s, s));
        }
    } else if t.p == vocab.rdf_type && t.o == owl.symmetric_property {
        for (s, o) in g.pairs_with_property(t.s) {
            emit(Triple::new(o, t.s, s));
        }
    } else if t.p == vocab.rdf_type && t.o == owl.transitive_property {
        // Seed one chaining step for every existing pair; the fix-point
        // completes the closure.
        for (s, o) in g.pairs_with_property(t.s) {
            if let Some(zs) = g.objects(o, t.s) {
                for &z in zs {
                    emit(Triple::new(s, t.s, z));
                }
            }
        }
    } else if !vocab.is_schema_property(t.p) && t.p != vocab.rdf_type {
        // t = (s p o), a plain instance edge.
        // inverse
        if let Some(inv) = g.objects(t.p, owl.inverse_of) {
            for &p2 in inv {
                emit(Triple::new(t.o, p2, t.s));
            }
        }
        if let Some(inv) = g.subjects_with(owl.inverse_of, t.p) {
            for &p1 in inv {
                emit(Triple::new(t.o, p1, t.s));
            }
        }
        // symmetric
        if g.contains(&Triple::new(t.p, vocab.rdf_type, owl.symmetric_property)) {
            emit(Triple::new(t.o, t.p, t.s));
        }
        // transitive (t as either instance premise)
        if g.contains(&Triple::new(t.p, vocab.rdf_type, owl.transitive_property)) {
            if let Some(zs) = g.objects(t.o, t.p) {
                for &z in zs {
                    emit(Triple::new(t.s, t.p, z));
                }
            }
            if let Some(xs) = g.subjects_with(t.p, t.s) {
                for &x in xs {
                    emit(Triple::new(x, t.p, t.o));
                }
            }
        }
    }
}

/// One-step derivability under RDFS-Plus — the DRed re-derivation test.
pub fn one_step_derivable_plus(d: &Triple, g: &Graph, vocab: &Vocab, owl: &OwlVocab) -> bool {
    if one_step_derivable(d, g, vocab) {
        return true;
    }
    if d.p == owl.inverse_of {
        return g.contains(&Triple::new(d.o, owl.inverse_of, d.s));
    }
    if vocab.is_schema_property(d.p) || d.p == vocab.rdf_type {
        return false;
    }
    // d = (a p b): inverse?
    let flipped = |q: TermId| g.contains(&Triple::new(d.o, q, d.s));
    if let Some(inv) = g.objects(d.p, owl.inverse_of) {
        if inv.iter().any(|&q| flipped(q)) {
            return true;
        }
    }
    if let Some(inv) = g.subjects_with(owl.inverse_of, d.p) {
        if inv.iter().any(|&q| flipped(q)) {
            return true;
        }
    }
    // symmetric?
    if g.contains(&Triple::new(d.p, vocab.rdf_type, owl.symmetric_property)) && flipped(d.p) {
        return true;
    }
    // transitive?
    if g.contains(&Triple::new(d.p, vocab.rdf_type, owl.transitive_property)) {
        if let Some(mids) = g.objects(d.s, d.p) {
            if mids
                .iter()
                .any(|&m| m != d.o && g.contains(&Triple::new(m, d.p, d.o)))
            {
                return true;
            }
        }
    }
    false
}

fn seminaive_plus(
    sat: &mut Graph,
    mut frontier: Vec<Triple>,
    vocab: &Vocab,
    owl: &OwlVocab,
) -> (usize, usize, usize) {
    let mut added = 0;
    let mut work = 0;
    let mut passes = 0;
    let mut buf: Vec<Triple> = Vec::new();
    while !frontier.is_empty() {
        passes += 1;
        buf.clear();
        for t in &frontier {
            consequences_of_plus(t, sat, vocab, owl, |c| buf.push(c));
        }
        work += buf.len();
        frontier.clear();
        for &c in &buf {
            if sat.insert(c) {
                added += 1;
                frontier.push(c);
            }
        }
    }
    (added, work, passes)
}

/// Computes the RDFS-Plus saturation of `g` (semi-naive fix-point).
pub fn saturate_plus(g: &Graph, vocab: &Vocab, owl: &OwlVocab) -> SaturationResult {
    let mut out = g.clone();
    let frontier: Vec<Triple> = g.iter().collect();
    let (added, work, passes) = seminaive_plus(&mut out, frontier, vocab, owl);
    let mut rule_firings: FxHashMap<&'static str, u64> = FxHashMap::default();
    rule_firings.insert("plus-new", added as u64);
    rule_firings.insert("plus-work", work as u64);
    let stats = SaturationStats {
        input_triples: g.len(),
        output_triples: out.len(),
        inferred: out.len() - g.len(),
        passes,
        rule_firings,
    };
    SaturationResult { graph: out, stats }
}

/// A DRed maintainer for the RDFS-Plus rule set.
///
/// Same algorithm as [`crate::incremental::DRedMaintainer`], over the
/// extended rules; correct under cycles and the unbounded derivation
/// chains transitivity introduces (which is why counting does not extend).
pub struct PlusMaintainer {
    vocab: Vocab,
    owl: OwlVocab,
    base: Graph,
    sat: Graph,
}

impl PlusMaintainer {
    /// Builds the maintainer, computing the initial RDFS-Plus saturation.
    pub fn new(base: Graph, vocab: Vocab, owl: OwlVocab) -> Self {
        let sat = saturate_plus(&base, &vocab, &owl).graph;
        PlusMaintainer {
            vocab,
            owl,
            base,
            sat,
        }
    }

    fn classify(&self, t: &Triple, insert: bool) -> UpdateKind {
        let schema = self.vocab.is_schema_property(t.p)
            || t.p == self.owl.inverse_of
            || (t.p == self.vocab.rdf_type
                && (t.o == self.owl.symmetric_property || t.o == self.owl.transitive_property));
        match (schema, insert) {
            (true, true) => UpdateKind::SchemaInsert,
            (true, false) => UpdateKind::SchemaDelete,
            (false, true) => UpdateKind::InstanceInsert,
            (false, false) => UpdateKind::InstanceDelete,
        }
    }
}

impl Maintainer for PlusMaintainer {
    fn explicit(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        Box::new(self.base.iter())
    }
    fn explicit_len(&self) -> usize {
        self.base.len()
    }
    fn is_explicit(&self, t: &Triple) -> bool {
        self.base.contains(t)
    }
    fn saturated(&self) -> &Graph {
        &self.sat
    }

    fn insert(&mut self, t: Triple) -> UpdateStats {
        if !self.base.insert(t) {
            return UpdateStats::noop();
        }
        let kind = self.classify(&t, true);
        if !self.sat.insert(t) {
            return UpdateStats {
                kind,
                added: 0,
                removed: 0,
                work: 0,
            };
        }
        let (added, work, _) = seminaive_plus(&mut self.sat, vec![t], &self.vocab, &self.owl);
        UpdateStats {
            kind,
            added: added + 1,
            removed: 0,
            work,
        }
    }

    fn delete(&mut self, t: &Triple) -> UpdateStats {
        if !self.base.remove(t) {
            return UpdateStats::noop();
        }
        let kind = self.classify(t, false);
        let mut work = 0;

        // over-delete
        let mut over: FxHashSet<Triple> = FxHashSet::default();
        over.insert(*t);
        let mut frontier = vec![*t];
        while let Some(d) = frontier.pop() {
            consequences_of_plus(&d, &self.sat, &self.vocab, &self.owl, |c| {
                work += 1;
                if self.sat.contains(&c) && over.insert(c) {
                    frontier.push(c);
                }
            });
        }
        for d in &over {
            self.sat.remove(d);
        }
        // re-derive
        let mut seeds = Vec::new();
        for d in &over {
            work += 1;
            if self.base.contains(d)
                || one_step_derivable_plus(d, &self.sat, &self.vocab, &self.owl)
            {
                self.sat.insert(*d);
                seeds.push(*d);
            }
        }
        let (_, w2, _) = seminaive_plus(&mut self.sat, seeds, &self.vocab, &self.owl);
        work += w2;

        let removed = over.iter().filter(|d| !self.sat.contains(d)).count();
        UpdateStats {
            kind,
            added: 0,
            removed,
            work,
        }
    }

    fn name(&self) -> &'static str {
        "plus-dred"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fx {
        dict: Dictionary,
        vocab: Vocab,
        owl: OwlVocab,
        g: Graph,
    }

    impl Fx {
        fn new() -> Self {
            let mut dict = Dictionary::new();
            let vocab = Vocab::intern(&mut dict);
            let owl = OwlVocab::intern(&mut dict);
            Fx {
                dict,
                vocab,
                owl,
                g: Graph::new(),
            }
        }
        fn id(&mut self, n: &str) -> TermId {
            self.dict.encode_iri(&format!("http://ex/{n}"))
        }
        fn add(&mut self, s: TermId, p: TermId, o: TermId) {
            self.g.insert(Triple::new(s, p, o));
        }
        fn sat(&self) -> Graph {
            saturate_plus(&self.g, &self.vocab, &self.owl).graph
        }
    }

    #[test]
    fn inverse_of_flips_edges_both_ways() {
        let mut f = Fx::new();
        let (has_child, has_parent, ann, bob) = (
            f.id("hasChild"),
            f.id("hasParent"),
            f.id("ann"),
            f.id("bob"),
        );
        let owl = f.owl;
        f.add(has_child, owl.inverse_of, has_parent);
        f.add(ann, has_child, bob);
        let carol = f.id("carol");
        f.add(carol, has_parent, ann);
        let sat = f.sat();
        assert!(
            sat.contains(&Triple::new(bob, has_parent, ann)),
            "forward inverse"
        );
        assert!(
            sat.contains(&Triple::new(ann, has_child, carol)),
            "backward inverse"
        );
        assert!(
            sat.contains(&Triple::new(has_parent, owl.inverse_of, has_child)),
            "symmetry of inverseOf"
        );
    }

    #[test]
    fn symmetric_property() {
        let mut f = Fx::new();
        let (knows, ann, bob) = (f.id("knows"), f.id("ann"), f.id("bob"));
        let (v, owl) = (f.vocab, f.owl);
        f.add(knows, v.rdf_type, owl.symmetric_property);
        f.add(ann, knows, bob);
        let sat = f.sat();
        assert!(sat.contains(&Triple::new(bob, knows, ann)));
    }

    #[test]
    fn transitive_property_closes_chains() {
        let mut f = Fx::new();
        let part_of = f.id("partOf");
        let (v, owl) = (f.vocab, f.owl);
        f.add(part_of, v.rdf_type, owl.transitive_property);
        let nodes: Vec<TermId> = (0..6).map(|i| f.id(&format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            f.add(w[0], part_of, w[1]);
        }
        let sat = f.sat();
        // full transitive closure of the chain: 5+4+3+2+1 = 15 edges
        let mut count = 0;
        sat.for_each_match(&rdf_model::Pattern::new(None, Some(part_of), None), |_| {
            count += 1
        });
        assert_eq!(count, 15);
        assert!(sat.contains(&Triple::new(nodes[0], part_of, nodes[5])));
    }

    #[test]
    fn owl_composes_with_rdfs() {
        // inverse edge feeds rdfs2 domain typing.
        let mut f = Fx::new();
        let (employs, works_for, person, acme, ann) = (
            f.id("employs"),
            f.id("worksFor"),
            f.id("Person"),
            f.id("acme"),
            f.id("ann"),
        );
        let (v, owl) = (f.vocab, f.owl);
        f.add(employs, owl.inverse_of, works_for);
        f.add(works_for, v.domain, person);
        f.add(acme, employs, ann);
        let sat = f.sat();
        assert!(sat.contains(&Triple::new(ann, works_for, acme)));
        assert!(
            sat.contains(&Triple::new(ann, v.rdf_type, person)),
            "inverse then domain"
        );
    }

    #[test]
    fn transitive_plus_subproperty() {
        // ancestor is transitive; parent ⊑ ancestor.
        let mut f = Fx::new();
        let (parent, ancestor, a, b, c) = (
            f.id("parent"),
            f.id("ancestor"),
            f.id("a"),
            f.id("b"),
            f.id("c"),
        );
        let (v, owl) = (f.vocab, f.owl);
        f.add(parent, v.sub_property_of, ancestor);
        f.add(ancestor, v.rdf_type, owl.transitive_property);
        f.add(a, parent, b);
        f.add(b, parent, c);
        let sat = f.sat();
        assert!(
            sat.contains(&Triple::new(a, ancestor, c)),
            "lift then chain"
        );
    }

    #[test]
    fn plus_maintainer_tracks_recompute() {
        let mut f = Fx::new();
        let (rel, sym_rel, a, b, c) =
            (f.id("rel"), f.id("symRel"), f.id("a"), f.id("b"), f.id("c"));
        let (v, owl) = (f.vocab, f.owl);
        f.add(rel, v.rdf_type, owl.transitive_property);
        f.add(sym_rel, v.rdf_type, owl.symmetric_property);
        f.add(a, rel, b);
        f.add(a, sym_rel, c);

        let mut m = PlusMaintainer::new(f.g.clone(), v, owl);
        let check = |m: &PlusMaintainer, base: &Graph| {
            assert_eq!(m.saturated(), &saturate_plus(base, &v, &owl).graph);
        };
        let mut base = f.g.clone();
        let updates = [
            (Triple::new(b, rel, c), true),
            (Triple::new(c, rel, a), true), // creates a cycle in the transitive relation
            (Triple::new(a, rel, b), false),
            (Triple::new(rel, v.rdf_type, owl.transitive_property), false), // schema delete
            (Triple::new(a, sym_rel, c), false),
        ];
        for (t, insert) in updates {
            if insert {
                base.insert(t);
                m.insert(t);
            } else {
                base.remove(&t);
                m.delete(&t);
            }
            check(&m, &base);
        }
    }

    #[test]
    fn without_owl_triples_plus_equals_rdfs() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("tom"));
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        assert_eq!(f.sat(), crate::saturate(&f.g, &v).graph);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Edge(u8, u8, u8, bool),
            MarkTransitive(u8, bool),
            MarkSymmetric(u8, bool),
            Inverse(u8, u8, bool),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (0u8..6, 0u8..3, 0u8..6, proptest::bool::ANY)
                        .prop_map(|(s, p, o, i)| Op::Edge(s, p, o, i)),
                    (0u8..3, proptest::bool::ANY).prop_map(|(p, i)| Op::MarkTransitive(p, i)),
                    (0u8..3, proptest::bool::ANY).prop_map(|(p, i)| Op::MarkSymmetric(p, i)),
                    (0u8..3, 0u8..3, proptest::bool::ANY)
                        .prop_map(|(p, q, i)| Op::Inverse(p, q, i)),
                ],
                0..25,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// The Plus maintainer equals recomputation under random streams
            /// of edge / transitivity / symmetry / inverse updates.
            #[test]
            fn plus_maintainer_equals_recompute(ops in arb_ops()) {
                let mut dict = Dictionary::new();
                let vocab = Vocab::intern(&mut dict);
                let owl = OwlVocab::intern(&mut dict);
                let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
                let node = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
                let mut m = PlusMaintainer::new(Graph::new(), vocab, owl);
                let mut base = Graph::new();
                for op in &ops {
                    let (t, insert) = match *op {
                        Op::Edge(s, p, o, i) => {
                            (Triple::new(node(&mut dict, s), prop(&mut dict, p), node(&mut dict, o)), i)
                        }
                        Op::MarkTransitive(p, i) => (
                            Triple::new(prop(&mut dict, p), vocab.rdf_type, owl.transitive_property),
                            i,
                        ),
                        Op::MarkSymmetric(p, i) => (
                            Triple::new(prop(&mut dict, p), vocab.rdf_type, owl.symmetric_property),
                            i,
                        ),
                        Op::Inverse(p, q, i) => (
                            Triple::new(prop(&mut dict, p), owl.inverse_of, prop(&mut dict, q)),
                            i,
                        ),
                    };
                    if insert {
                        base.insert(t);
                        m.insert(t);
                    } else {
                        base.remove(&t);
                        m.delete(&t);
                    }
                }
                let expect = saturate_plus(&base, &vocab, &owl).graph;
                prop_assert_eq!(m.saturated(), &expect);
                prop_assert_eq!(&m.explicit().collect::<Graph>(), &base);
            }
        }
    }
}
