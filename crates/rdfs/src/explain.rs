//! Derivation explanations ("justifications").
//!
//! OWLIM-class systems "compute only the relevant justifications w.r.t. an
//! update, at maintenance time" (§II-C): a justification is a derivation
//! of an entailed triple from asserted ones. [`explain`] produces such a
//! derivation tree for any triple of `G∞` — useful for debugging
//! ontologies, for auditing query answers, and as the conceptual basis of
//! the counting maintenance the crate implements.
//!
//! ```
//! use rdf_model::{Dictionary, Graph, Triple, Vocab};
//! use rdfs::explain::explain;
//!
//! let mut dict = Dictionary::new();
//! let vocab = Vocab::intern(&mut dict);
//! let (cat, mammal, tom) = (
//!     dict.encode_iri("http://z/Cat"),
//!     dict.encode_iri("http://z/Mammal"),
//!     dict.encode_iri("http://z/Tom"),
//! );
//! let mut g = Graph::new();
//! g.insert(Triple::new(cat, vocab.sub_class_of, mammal));
//! g.insert(Triple::new(tom, vocab.rdf_type, cat));
//!
//! let e = explain(&Triple::new(tom, vocab.rdf_type, mammal), &g, &vocab).unwrap();
//! assert_eq!(e.depth(), 1);                      // one rdfs9 application
//! assert!(e.render(&dict).contains("[rdfs9]"));  // human-readable tree
//! ```

use crate::rules::{derivations_of, Rule};
use crate::saturate;
use rdf_model::{Dictionary, Graph, Triple, Vocab};
use rustc_hash::FxHashSet;
use std::fmt::Write as _;

/// A derivation of a triple from the asserted graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Explanation {
    /// The triple is asserted in the base graph.
    Asserted(Triple),
    /// The triple follows from a rule application whose premises are in
    /// turn explained.
    Derived {
        /// The derived triple.
        triple: Triple,
        /// The immediate entailment rule applied.
        rule: Rule,
        /// Explanations of the two premises.
        premises: Box<[Explanation; 2]>,
    },
}

impl Explanation {
    /// The explained triple.
    pub fn triple(&self) -> Triple {
        match self {
            Explanation::Asserted(t) => *t,
            Explanation::Derived { triple, .. } => *triple,
        }
    }

    /// Number of rule applications in the tree.
    pub fn depth(&self) -> usize {
        match self {
            Explanation::Asserted(_) => 0,
            Explanation::Derived { premises, .. } => 1 + premises[0].depth() + premises[1].depth(),
        }
    }

    /// The asserted triples this derivation rests on (the justification's
    /// leaves).
    pub fn support(&self) -> FxHashSet<Triple> {
        let mut out = FxHashSet::default();
        self.collect_support(&mut out);
        out
    }

    fn collect_support(&self, out: &mut FxHashSet<Triple>) {
        match self {
            Explanation::Asserted(t) => {
                out.insert(*t);
            }
            Explanation::Derived { premises, .. } => {
                premises[0].collect_support(out);
                premises[1].collect_support(out);
            }
        }
    }

    /// Renders the derivation tree with decoded terms.
    pub fn render(&self, dict: &Dictionary) -> String {
        let mut out = String::new();
        self.render_into(dict, 0, &mut out);
        out
    }

    fn render_into(&self, dict: &Dictionary, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let show = |t: &Triple| -> String {
            let term = |id| {
                dict.decode(id)
                    .map_or_else(|| id.to_string(), |term| term.to_string())
            };
            format!("{} {} {}", term(t.s), term(t.p), term(t.o))
        };
        match self {
            Explanation::Asserted(t) => {
                let _ = writeln!(out, "{pad}{}   [asserted]", show(t));
            }
            Explanation::Derived {
                triple,
                rule,
                premises,
            } => {
                let _ = writeln!(out, "{pad}{}   [{}]", show(triple), rule.name());
                premises[0].render_into(dict, indent + 1, out);
                premises[1].render_into(dict, indent + 1, out);
            }
        }
    }
}

/// Explains why `t` is entailed by `base`: a derivation tree rooted at `t`
/// whose leaves are asserted triples. Returns `None` when `t` is not in
/// `G∞`.
///
/// Backward search with backtracking over the rule instances of the
/// saturated graph; the path-local cycle guard makes it complete (every
/// entailed triple has an acyclic derivation) and terminating even on
/// cyclic schemas.
pub fn explain(t: &Triple, base: &Graph, vocab: &Vocab) -> Option<Explanation> {
    let sat = saturate(base, vocab).graph;
    explain_in(t, &|t| base.contains(t), &sat, vocab)
}

/// Like [`explain`], but reuses an already-computed saturation (`sat` must
/// be the saturation of the triples `is_explicit` accepts); the store's
/// saturation strategy calls this with its explicit-bit test.
pub fn explain_in(
    t: &Triple,
    is_explicit: &dyn Fn(&Triple) -> bool,
    sat: &Graph,
    vocab: &Vocab,
) -> Option<Explanation> {
    let mut visiting = FxHashSet::default();
    explain_rec(t, is_explicit, sat, vocab, &mut visiting)
}

fn explain_rec(
    t: &Triple,
    is_explicit: &dyn Fn(&Triple) -> bool,
    sat: &Graph,
    vocab: &Vocab,
    visiting: &mut FxHashSet<Triple>,
) -> Option<Explanation> {
    if is_explicit(t) {
        return Some(Explanation::Asserted(*t));
    }
    if !sat.contains(t) || !visiting.insert(*t) {
        return None;
    }
    let mut instances: Vec<(Rule, Triple, Triple)> = Vec::new();
    derivations_of(t, sat, vocab, |rule, p1, p2| instances.push((rule, p1, p2)));
    // Prefer instances whose premises are asserted: shallower trees first.
    instances.sort_by_key(|(_, p1, p2)| (!is_explicit(p1)) as u8 + (!is_explicit(p2)) as u8);
    let mut found = None;
    for (rule, p1, p2) in instances {
        let Some(e1) = explain_rec(&p1, is_explicit, sat, vocab, visiting) else {
            continue;
        };
        let Some(e2) = explain_rec(&p2, is_explicit, sat, vocab, visiting) else {
            continue;
        };
        found = Some(Explanation::Derived {
            triple: *t,
            rule,
            premises: Box::new([e1, e2]),
        });
        break;
    }
    visiting.remove(t);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::TermId;

    struct Fx {
        dict: Dictionary,
        vocab: Vocab,
        g: Graph,
    }

    impl Fx {
        fn new() -> Self {
            let mut dict = Dictionary::new();
            let vocab = Vocab::intern(&mut dict);
            Fx {
                dict,
                vocab,
                g: Graph::new(),
            }
        }
        fn id(&mut self, n: &str) -> TermId {
            self.dict.encode_iri(&format!("http://ex/{n}"))
        }
        fn add(&mut self, s: TermId, p: TermId, o: TermId) {
            self.g.insert(Triple::new(s, p, o));
        }
    }

    #[test]
    fn asserted_triples_explain_as_asserted() {
        let mut f = Fx::new();
        let (a, p, b) = (f.id("a"), f.id("p"), f.id("b"));
        f.add(a, p, b);
        let e = explain(&Triple::new(a, p, b), &f.g, &f.vocab).unwrap();
        assert_eq!(e, Explanation::Asserted(Triple::new(a, p, b)));
        assert_eq!(e.depth(), 0);
    }

    #[test]
    fn one_step_derivation() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("tom"));
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        let e = explain(&Triple::new(tom, v.rdf_type, mammal), &f.g, &v).unwrap();
        assert_eq!(e.depth(), 1);
        match &e {
            Explanation::Derived { rule, premises, .. } => {
                assert_eq!(*rule, Rule::Rdfs9);
                assert!(matches!(premises[0], Explanation::Asserted(_)));
                assert!(matches!(premises[1], Explanation::Asserted(_)));
            }
            other => panic!("expected derivation, got {other:?}"),
        }
        let support = e.support();
        assert_eq!(support.len(), 2);
        assert!(support.contains(&Triple::new(cat, v.sub_class_of, mammal)));
    }

    #[test]
    fn multi_step_chain_explains_all_the_way_down() {
        let mut f = Fx::new();
        let (teaches, worksfor, prof, person, bob, uni) = (
            f.id("teaches"),
            f.id("worksFor"),
            f.id("Professor"),
            f.id("Person"),
            f.id("bob"),
            f.id("uni"),
        );
        let v = f.vocab;
        f.add(teaches, v.sub_property_of, worksfor);
        f.add(worksfor, v.domain, prof);
        f.add(prof, v.sub_class_of, person);
        f.add(bob, teaches, uni);
        // bob type Person needs teaches→worksFor (rdfs7), domain (rdfs2), subclass (rdfs9)
        let e = explain(&Triple::new(bob, v.rdf_type, person), &f.g, &v).unwrap();
        assert!(e.depth() >= 3, "deep derivation, got {}", e.depth());
        // all leaves asserted
        assert!(e.support().iter().all(|t| f.g.contains(t)));
        // rendering shows rule applications over asserted leaves (the
        // search may pick any valid derivation, e.g. via the ext rules)
        let text = e.render(&f.dict);
        assert!(
            text.contains("[rdfs2]") || text.contains("[rdfs9]"),
            "{text}"
        );
        assert!(text.contains("[asserted]"));
    }

    #[test]
    fn unentailed_triples_have_no_explanation() {
        let mut f = Fx::new();
        let (a, p, b) = (f.id("a"), f.id("p"), f.id("b"));
        f.add(a, p, b);
        assert_eq!(explain(&Triple::new(b, p, a), &f.g, &f.vocab), None);
    }

    #[test]
    fn cyclic_schema_explanations_terminate() {
        let mut f = Fx::new();
        let (x, a, b) = (f.id("x"), f.id("A"), f.id("B"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, a);
        f.add(x, v.rdf_type, a);
        // x type B via the cycle
        let e = explain(&Triple::new(x, v.rdf_type, b), &f.g, &v).unwrap();
        assert!(e.depth() >= 1);
        // the cycle-entailed self-edge (a sc a) also has a finite explanation
        let e = explain(&Triple::new(a, v.sub_class_of, a), &f.g, &v).unwrap();
        assert_eq!(e.depth(), 1, "a ⊑ b ∧ b ⊑ a ⊢ a ⊑ a");
    }

    #[test]
    fn every_saturated_triple_is_explainable() {
        let mut f = Fx::new();
        let ids: Vec<TermId> = (0..5).map(|i| f.id(&format!("C{i}"))).collect();
        let props: Vec<TermId> = (0..3).map(|i| f.id(&format!("p{i}"))).collect();
        let v = f.vocab;
        for w in ids.windows(2) {
            f.add(w[0], v.sub_class_of, w[1]);
        }
        f.add(props[0], v.sub_property_of, props[1]);
        f.add(props[1], v.domain, ids[0]);
        f.add(props[1], v.range, ids[2]);
        for i in 0..6 {
            let s = f.id(&format!("n{i}"));
            let o = f.id(&format!("n{}", (i + 1) % 6));
            f.add(s, props[i % 2], o);
        }
        let sat = saturate(&f.g, &v).graph;
        for t in sat.iter() {
            let e = explain_in(&t, &|t| f.g.contains(t), &sat, &v)
                .unwrap_or_else(|| panic!("no explanation for saturated triple {t}"));
            assert_eq!(e.triple(), t);
            assert!(
                e.support().iter().all(|leaf| f.g.contains(leaf)),
                "leaves asserted"
            );
        }
    }
}
