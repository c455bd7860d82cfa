//! Immediate entailment rules (`⊢ᵢ_RDF`, Fig. 2 of the paper).
//!
//! Each rule has exactly two premises; [`consequences_of`] enumerates every
//! rule instance in which a given triple fills *either* premise while the
//! other premise is drawn from a graph. This "delta-aware" formulation is
//! the single primitive from which the naive fix-point, semi-naive
//! saturation, insertion deltas and DRed over-deletion are all built.
//!
//! The first four rules are the instance-entailment rules the paper shows
//! in Fig. 2; the remaining six close the schema itself (rdfs5/rdfs11
//! transitivity plus domain/range propagation, as in the database fragment
//! of ref. \[12\]). Schema-level rules do not change which instance triples
//! are entailed, but make the schema part of `G∞` explicit.
//!
//! **Fragment assumption**: the four RDFS constraint properties and
//! `rdf:type` are *built-ins* — they do not themselves appear as subjects
//! or objects of constraints (no `rdfs:domain rdfs:subClassOf …`). This is
//! the well-formedness restriction of the paper's RDF fragment (§II-B,
//! "These RDF fragments impose restrictions on triples").

use rdf_model::{Graph, Triple, Vocab};

/// The entailment rules implemented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `p rdfs:domain c ∧ s p o ⊢ s rdf:type c` (Fig. 2).
    Rdfs2,
    /// `p rdfs:range c ∧ s p o ⊢ o rdf:type c` (Fig. 2).
    Rdfs3,
    /// `p1 rdfs:subPropertyOf p2 ∧ p2 rdfs:subPropertyOf p3 ⊢ p1 rdfs:subPropertyOf p3`.
    Rdfs5,
    /// `p1 rdfs:subPropertyOf p2 ∧ s p1 o ⊢ s p2 o` (Fig. 2).
    Rdfs7,
    /// `c1 rdfs:subClassOf c2 ∧ s rdf:type c1 ⊢ s rdf:type c2` (Fig. 2).
    Rdfs9,
    /// `c1 rdfs:subClassOf c2 ∧ c2 rdfs:subClassOf c3 ⊢ c1 rdfs:subClassOf c3`.
    Rdfs11,
    /// `p rdfs:subPropertyOf p' ∧ p' rdfs:domain c ⊢ p rdfs:domain c`.
    ExtDomainSubProperty,
    /// `p rdfs:subPropertyOf p' ∧ p' rdfs:range c ⊢ p rdfs:range c`.
    ExtRangeSubProperty,
    /// `p rdfs:domain c ∧ c rdfs:subClassOf c' ⊢ p rdfs:domain c'`.
    ExtDomainSubClass,
    /// `p rdfs:range c ∧ c rdfs:subClassOf c' ⊢ p rdfs:range c'`.
    ExtRangeSubClass,
}

impl Rule {
    /// Every rule, in presentation order (Fig. 2 rules first).
    pub const ALL: [Rule; 10] = [
        Rule::Rdfs2,
        Rule::Rdfs3,
        Rule::Rdfs7,
        Rule::Rdfs9,
        Rule::Rdfs5,
        Rule::Rdfs11,
        Rule::ExtDomainSubProperty,
        Rule::ExtRangeSubProperty,
        Rule::ExtDomainSubClass,
        Rule::ExtRangeSubClass,
    ];

    /// The rule's conventional name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Rdfs2 => "rdfs2",
            Rule::Rdfs3 => "rdfs3",
            Rule::Rdfs5 => "rdfs5",
            Rule::Rdfs7 => "rdfs7",
            Rule::Rdfs9 => "rdfs9",
            Rule::Rdfs11 => "rdfs11",
            Rule::ExtDomainSubProperty => "ext-dom-sp",
            Rule::ExtRangeSubProperty => "ext-rng-sp",
            Rule::ExtDomainSubClass => "ext-dom-sc",
            Rule::ExtRangeSubClass => "ext-rng-sc",
        }
    }

    /// Human-readable statement of the rule, as in Fig. 2.
    pub fn statement(self) -> &'static str {
        match self {
            Rule::Rdfs2 => "p rdfs:domain c ∧ s p o ⊢ s rdf:type c",
            Rule::Rdfs3 => "p rdfs:range c ∧ s p o ⊢ o rdf:type c",
            Rule::Rdfs5 => {
                "p1 rdfs:subPropertyOf p2 ∧ p2 rdfs:subPropertyOf p3 ⊢ p1 rdfs:subPropertyOf p3"
            }
            Rule::Rdfs7 => "p1 rdfs:subPropertyOf p2 ∧ s p1 o ⊢ s p2 o",
            Rule::Rdfs9 => "c1 rdfs:subClassOf c2 ∧ s rdf:type c1 ⊢ s rdf:type c2",
            Rule::Rdfs11 => "c1 rdfs:subClassOf c2 ∧ c2 rdfs:subClassOf c3 ⊢ c1 rdfs:subClassOf c3",
            Rule::ExtDomainSubProperty => {
                "p rdfs:subPropertyOf p' ∧ p' rdfs:domain c ⊢ p rdfs:domain c"
            }
            Rule::ExtRangeSubProperty => {
                "p rdfs:subPropertyOf p' ∧ p' rdfs:range c ⊢ p rdfs:range c"
            }
            Rule::ExtDomainSubClass => "p rdfs:domain c ∧ c rdfs:subClassOf c' ⊢ p rdfs:domain c'",
            Rule::ExtRangeSubClass => "p rdfs:range c ∧ c rdfs:subClassOf c' ⊢ p rdfs:range c'",
        }
    }

    /// True for the four instance-entailment rules shown in the paper's Fig. 2.
    pub fn in_figure2(self) -> bool {
        matches!(self, Rule::Rdfs2 | Rule::Rdfs3 | Rule::Rdfs7 | Rule::Rdfs9)
    }
}

/// Enumerates every immediate consequence of rule instances in which `t`
/// fills one premise and the other premise is drawn from `g`.
///
/// `g` should contain `t` itself if self-joins (both premises = `t`) are to
/// be found, as the fix-point engines require. Consequences are emitted
/// with the rule that produced them and may repeat or already be in `g`;
/// dedup is the caller's concern.
pub fn consequences_of(t: &Triple, g: &Graph, vocab: &Vocab, mut emit: impl FnMut(Rule, Triple)) {
    let v = vocab;

    // --- t as the schema premise ---------------------------------------
    if t.p == v.domain {
        // rdfs2, premise 1: t = (p domain c)
        for (s, _o) in g.pairs_with_property(t.s) {
            emit(Rule::Rdfs2, Triple::new(s, v.rdf_type, t.o));
        }
        // ext-dom-sc, premise 1: t = (p domain c), need (c sc c')
        if let Some(sups) = g.objects(t.o, v.sub_class_of) {
            for c2 in sups.iter() {
                emit(Rule::ExtDomainSubClass, Triple::new(t.s, v.domain, c2));
            }
        }
        // ext-dom-sp, premise 2: t = (p' domain c), need (p sp p')
        if let Some(subs) = g.subjects_with(v.sub_property_of, t.s) {
            for p in subs.iter() {
                emit(Rule::ExtDomainSubProperty, Triple::new(p, v.domain, t.o));
            }
        }
    } else if t.p == v.range {
        // rdfs3, premise 1: t = (p range c)
        for (_s, o) in g.pairs_with_property(t.s) {
            emit(Rule::Rdfs3, Triple::new(o, v.rdf_type, t.o));
        }
        if let Some(sups) = g.objects(t.o, v.sub_class_of) {
            for c2 in sups.iter() {
                emit(Rule::ExtRangeSubClass, Triple::new(t.s, v.range, c2));
            }
        }
        if let Some(subs) = g.subjects_with(v.sub_property_of, t.s) {
            for p in subs.iter() {
                emit(Rule::ExtRangeSubProperty, Triple::new(p, v.range, t.o));
            }
        }
    } else if t.p == v.sub_property_of {
        // rdfs7, premise 1: t = (p1 sp p2), need (s p1 o)
        for (s, o) in g.pairs_with_property(t.s) {
            emit(Rule::Rdfs7, Triple::new(s, t.o, o));
        }
        // rdfs5, premise 1: t = (p1 sp p2), need (p2 sp p3)
        if let Some(p3s) = g.objects(t.o, v.sub_property_of) {
            for p3 in p3s.iter() {
                emit(Rule::Rdfs5, Triple::new(t.s, v.sub_property_of, p3));
            }
        }
        // rdfs5, premise 2: t = (p2 sp p3), need (p1 sp p2)
        if let Some(p1s) = g.subjects_with(v.sub_property_of, t.s) {
            for p1 in p1s.iter() {
                emit(Rule::Rdfs5, Triple::new(p1, v.sub_property_of, t.o));
            }
        }
        // ext-dom-sp, premise 1: t = (p sp p'), need (p' domain c)
        if let Some(cs) = g.objects(t.o, v.domain) {
            for c in cs.iter() {
                emit(Rule::ExtDomainSubProperty, Triple::new(t.s, v.domain, c));
            }
        }
        // ext-rng-sp, premise 1
        if let Some(cs) = g.objects(t.o, v.range) {
            for c in cs.iter() {
                emit(Rule::ExtRangeSubProperty, Triple::new(t.s, v.range, c));
            }
        }
    } else if t.p == v.sub_class_of {
        // rdfs9, premise 1: t = (c1 sc c2), need (s type c1)
        if let Some(ss) = g.subjects_with(v.rdf_type, t.s) {
            for s in ss.iter() {
                emit(Rule::Rdfs9, Triple::new(s, v.rdf_type, t.o));
            }
        }
        // rdfs11, premise 1 & 2
        if let Some(c3s) = g.objects(t.o, v.sub_class_of) {
            for c3 in c3s.iter() {
                emit(Rule::Rdfs11, Triple::new(t.s, v.sub_class_of, c3));
            }
        }
        if let Some(c1s) = g.subjects_with(v.sub_class_of, t.s) {
            for c1 in c1s.iter() {
                emit(Rule::Rdfs11, Triple::new(c1, v.sub_class_of, t.o));
            }
        }
        // ext-dom-sc / ext-rng-sc, premise 2: t = (c sc c'), need (p domain c)
        if let Some(ps) = g.subjects_with(v.domain, t.s) {
            for p in ps.iter() {
                emit(Rule::ExtDomainSubClass, Triple::new(p, v.domain, t.o));
            }
        }
        if let Some(ps) = g.subjects_with(v.range, t.s) {
            for p in ps.iter() {
                emit(Rule::ExtRangeSubClass, Triple::new(p, v.range, t.o));
            }
        }
    } else if t.p == v.rdf_type {
        // rdfs9, premise 2: t = (s type c1), need (c1 sc c2)
        if let Some(c2s) = g.objects(t.o, v.sub_class_of) {
            for c2 in c2s.iter() {
                emit(Rule::Rdfs9, Triple::new(t.s, v.rdf_type, c2));
            }
        }
    } else {
        // t is a plain property assertion (s p o).
        // rdfs7, premise 2: need (p sp p2)
        if let Some(p2s) = g.objects(t.p, v.sub_property_of) {
            for p2 in p2s.iter() {
                emit(Rule::Rdfs7, Triple::new(t.s, p2, t.o));
            }
        }
        // rdfs2, premise 2: need (p domain c)
        if let Some(cs) = g.objects(t.p, v.domain) {
            for c in cs.iter() {
                emit(Rule::Rdfs2, Triple::new(t.s, v.rdf_type, c));
            }
        }
        // rdfs3, premise 2: need (p range c)
        if let Some(cs) = g.objects(t.p, v.range) {
            for c in cs.iter() {
                emit(Rule::Rdfs3, Triple::new(t.o, v.rdf_type, c));
            }
        }
    }
}

/// True if `d` is the conclusion of at least one rule instance whose two
/// premises are both in `g` — the re-derivation test of the DRed
/// (delete-and-rederive) maintenance algorithm.
pub fn one_step_derivable(d: &Triple, g: &Graph, vocab: &Vocab) -> bool {
    let v = vocab;
    if d.p == v.rdf_type {
        // rdfs2: (p domain c) ∧ (s p o)
        if let Some(ps) = g.subjects_with(v.domain, d.o) {
            if ps.iter().any(|p| g.objects(d.s, p).is_some()) {
                return true;
            }
        }
        // rdfs3: (p range c) ∧ (o p s)
        if let Some(ps) = g.subjects_with(v.range, d.o) {
            if ps.iter().any(|p| g.subjects_with(p, d.s).is_some()) {
                return true;
            }
        }
        // rdfs9: (c1 sc c) ∧ (s type c1)
        if let Some(c1s) = g.subjects_with(v.sub_class_of, d.o) {
            if c1s
                .iter()
                .any(|c1| g.contains(&Triple::new(d.s, v.rdf_type, c1)))
            {
                return true;
            }
        }
        false
    } else if d.p == v.sub_class_of {
        // rdfs11: (s sc m) ∧ (m sc o)
        g.objects(d.s, v.sub_class_of).is_some_and(|mids| {
            mids.iter()
                .any(|m| g.contains(&Triple::new(m, v.sub_class_of, d.o)))
        })
    } else if d.p == v.sub_property_of {
        // rdfs5
        g.objects(d.s, v.sub_property_of).is_some_and(|mids| {
            mids.iter()
                .any(|m| g.contains(&Triple::new(m, v.sub_property_of, d.o)))
        })
    } else if d.p == v.domain {
        // ext-dom-sp: (s sp p') ∧ (p' domain o)
        let via_sp = g.objects(d.s, v.sub_property_of).is_some_and(|ps| {
            ps.iter()
                .any(|p2| g.contains(&Triple::new(p2, v.domain, d.o)))
        });
        // ext-dom-sc: (s domain c0) ∧ (c0 sc o)
        let via_sc = g.objects(d.s, v.domain).is_some_and(|cs| {
            cs.iter()
                .any(|c0| g.contains(&Triple::new(c0, v.sub_class_of, d.o)))
        });
        via_sp || via_sc
    } else if d.p == v.range {
        let via_sp = g.objects(d.s, v.sub_property_of).is_some_and(|ps| {
            ps.iter()
                .any(|p2| g.contains(&Triple::new(p2, v.range, d.o)))
        });
        let via_sc = g.objects(d.s, v.range).is_some_and(|cs| {
            cs.iter()
                .any(|c0| g.contains(&Triple::new(c0, v.sub_class_of, d.o)))
        });
        via_sp || via_sc
    } else {
        // rdfs7: (p1 sp p) ∧ (s p1 o)
        g.subjects_with(v.sub_property_of, d.p)
            .is_some_and(|p1s| p1s.iter().any(|p1| g.contains(&Triple::new(d.s, p1, d.o))))
    }
}

/// Enumerates every rule instance concluding `d` with both premises in
/// `g`, as `(rule, premise₁, premise₂)` — the inverse of
/// [`consequences_of`], used by the explanation facility and mirroring
/// [`one_step_derivable`] (which is `derivations_of(..).next().is_some()`
/// in spirit, kept separate because the boolean version short-circuits).
pub fn derivations_of(
    d: &Triple,
    g: &Graph,
    vocab: &Vocab,
    mut emit: impl FnMut(Rule, Triple, Triple),
) {
    let v = vocab;
    if d.p == v.rdf_type {
        // rdfs2: (p domain c) ∧ (s p o)
        if let Some(ps) = g.subjects_with(v.domain, d.o) {
            for p in ps.iter() {
                if let Some(os) = g.objects(d.s, p) {
                    for o in os.iter() {
                        emit(
                            Rule::Rdfs2,
                            Triple::new(p, v.domain, d.o),
                            Triple::new(d.s, p, o),
                        );
                    }
                }
            }
        }
        // rdfs3: (p range c) ∧ (s p o) with o = d.s
        if let Some(ps) = g.subjects_with(v.range, d.o) {
            for p in ps.iter() {
                if let Some(ss) = g.subjects_with(p, d.s) {
                    for s in ss.iter() {
                        emit(
                            Rule::Rdfs3,
                            Triple::new(p, v.range, d.o),
                            Triple::new(s, p, d.s),
                        );
                    }
                }
            }
        }
        // rdfs9: (c1 sc c) ∧ (s type c1)
        if let Some(c1s) = g.subjects_with(v.sub_class_of, d.o) {
            for c1 in c1s.iter() {
                if g.contains(&Triple::new(d.s, v.rdf_type, c1)) {
                    emit(
                        Rule::Rdfs9,
                        Triple::new(c1, v.sub_class_of, d.o),
                        Triple::new(d.s, v.rdf_type, c1),
                    );
                }
            }
        }
    } else if d.p == v.sub_class_of {
        if let Some(mids) = g.objects(d.s, v.sub_class_of) {
            for m in mids.iter() {
                if g.contains(&Triple::new(m, v.sub_class_of, d.o)) {
                    emit(
                        Rule::Rdfs11,
                        Triple::new(d.s, v.sub_class_of, m),
                        Triple::new(m, v.sub_class_of, d.o),
                    );
                }
            }
        }
    } else if d.p == v.sub_property_of {
        if let Some(mids) = g.objects(d.s, v.sub_property_of) {
            for m in mids.iter() {
                if g.contains(&Triple::new(m, v.sub_property_of, d.o)) {
                    emit(
                        Rule::Rdfs5,
                        Triple::new(d.s, v.sub_property_of, m),
                        Triple::new(m, v.sub_property_of, d.o),
                    );
                }
            }
        }
    } else if d.p == v.domain || d.p == v.range {
        let (sp_rule, sc_rule) = if d.p == v.domain {
            (Rule::ExtDomainSubProperty, Rule::ExtDomainSubClass)
        } else {
            (Rule::ExtRangeSubProperty, Rule::ExtRangeSubClass)
        };
        // ext-*-sp: (s sp p') ∧ (p' d.p o)
        if let Some(sups) = g.objects(d.s, v.sub_property_of) {
            for p2 in sups.iter() {
                if g.contains(&Triple::new(p2, d.p, d.o)) {
                    emit(
                        sp_rule,
                        Triple::new(d.s, v.sub_property_of, p2),
                        Triple::new(p2, d.p, d.o),
                    );
                }
            }
        }
        // ext-*-sc: (s d.p c0) ∧ (c0 sc o)
        if let Some(cs) = g.objects(d.s, d.p) {
            for c0 in cs.iter() {
                if g.contains(&Triple::new(c0, v.sub_class_of, d.o)) {
                    emit(
                        sc_rule,
                        Triple::new(d.s, d.p, c0),
                        Triple::new(c0, v.sub_class_of, d.o),
                    );
                }
            }
        }
    } else {
        // rdfs7: (p1 sp p) ∧ (s p1 o)
        if let Some(p1s) = g.subjects_with(v.sub_property_of, d.p) {
            for p1 in p1s.iter() {
                if g.contains(&Triple::new(d.s, p1, d.o)) {
                    emit(
                        Rule::Rdfs7,
                        Triple::new(p1, v.sub_property_of, d.p),
                        Triple::new(d.s, p1, d.o),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dictionary, TermId};

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
        fn add(&mut self, s: TermId, p: TermId, o: TermId) -> Triple {
            let t = Triple::new(s, p, o);
            self.g.insert(t);
            t
        }
        fn consequences(&self, t: &Triple) -> Vec<(Rule, Triple)> {
            let mut out = Vec::new();
            consequences_of(t, &self.g, &self.vocab, |r, c| out.push((r, c)));
            out.sort();
            out.dedup();
            out
        }
    }

    #[test]
    fn rdfs2_both_premise_positions() {
        // hasFriend rdfs:domain Person ∧ Anne hasFriend Marie ⊢ Anne type Person
        let mut f = Fx::new();
        let (hf, person, anne, marie) = (
            f.id("hasFriend"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
        );
        let v = f.vocab;
        let schema = f.add(hf, v.domain, person);
        let fact = f.add(anne, hf, marie);
        let want = Triple::new(anne, v.rdf_type, person);
        assert!(
            f.consequences(&schema).contains(&(Rule::Rdfs2, want)),
            "via schema premise"
        );
        assert!(
            f.consequences(&fact).contains(&(Rule::Rdfs2, want)),
            "via instance premise"
        );
    }

    #[test]
    fn rdfs3_both_premise_positions() {
        let mut f = Fx::new();
        let (hf, person, anne, marie) = (
            f.id("hasFriend"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
        );
        let v = f.vocab;
        let schema = f.add(hf, v.range, person);
        let fact = f.add(anne, hf, marie);
        let want = Triple::new(marie, v.rdf_type, person);
        assert!(f.consequences(&schema).contains(&(Rule::Rdfs3, want)));
        assert!(f.consequences(&fact).contains(&(Rule::Rdfs3, want)));
    }

    #[test]
    fn rdfs7_both_premise_positions() {
        let mut f = Fx::new();
        let (hf, knows, anne, marie) = (
            f.id("hasFriend"),
            f.id("knows"),
            f.id("Anne"),
            f.id("Marie"),
        );
        let v = f.vocab;
        let schema = f.add(hf, v.sub_property_of, knows);
        let fact = f.add(anne, hf, marie);
        let want = Triple::new(anne, knows, marie);
        assert!(f.consequences(&schema).contains(&(Rule::Rdfs7, want)));
        assert!(f.consequences(&fact).contains(&(Rule::Rdfs7, want)));
    }

    #[test]
    fn rdfs9_both_premise_positions() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("Tom"));
        let v = f.vocab;
        let schema = f.add(cat, v.sub_class_of, mammal);
        let fact = f.add(tom, v.rdf_type, cat);
        let want = Triple::new(tom, v.rdf_type, mammal);
        assert!(f.consequences(&schema).contains(&(Rule::Rdfs9, want)));
        assert!(f.consequences(&fact).contains(&(Rule::Rdfs9, want)));
    }

    #[test]
    fn rdfs5_and_rdfs11_transitivity() {
        let mut f = Fx::new();
        let (a, b, c) = (f.id("a"), f.id("b"), f.id("c"));
        let v = f.vocab;
        let ab = f.add(a, v.sub_property_of, b);
        let bc = f.add(b, v.sub_property_of, c);
        let want = Triple::new(a, v.sub_property_of, c);
        assert!(f.consequences(&ab).contains(&(Rule::Rdfs5, want)));
        assert!(f.consequences(&bc).contains(&(Rule::Rdfs5, want)));

        let mut f = Fx::new();
        let (x, y, z) = (f.id("X"), f.id("Y"), f.id("Z"));
        let v = f.vocab;
        let xy = f.add(x, v.sub_class_of, y);
        let yz = f.add(y, v.sub_class_of, z);
        let want = Triple::new(x, v.sub_class_of, z);
        assert!(f.consequences(&xy).contains(&(Rule::Rdfs11, want)));
        assert!(f.consequences(&yz).contains(&(Rule::Rdfs11, want)));
    }

    #[test]
    fn ext_rules_propagate_domain_and_range() {
        let mut f = Fx::new();
        let (p, q, c, d) = (f.id("p"), f.id("q"), f.id("C"), f.id("D"));
        let v = f.vocab;
        let sp = f.add(p, v.sub_property_of, q);
        let dom = f.add(q, v.domain, c);
        let sc = f.add(c, v.sub_class_of, d);
        let rng = f.add(q, v.range, c);

        // p inherits q's domain / range
        assert!(f
            .consequences(&sp)
            .contains(&(Rule::ExtDomainSubProperty, Triple::new(p, v.domain, c))));
        assert!(f
            .consequences(&dom)
            .contains(&(Rule::ExtDomainSubProperty, Triple::new(p, v.domain, c))));
        assert!(f
            .consequences(&sp)
            .contains(&(Rule::ExtRangeSubProperty, Triple::new(p, v.range, c))));
        assert!(f
            .consequences(&rng)
            .contains(&(Rule::ExtRangeSubProperty, Triple::new(p, v.range, c))));
        // domain/range lift through subclass
        assert!(f
            .consequences(&dom)
            .contains(&(Rule::ExtDomainSubClass, Triple::new(q, v.domain, d))));
        assert!(f
            .consequences(&sc)
            .contains(&(Rule::ExtDomainSubClass, Triple::new(q, v.domain, d))));
        assert!(f
            .consequences(&rng)
            .contains(&(Rule::ExtRangeSubClass, Triple::new(q, v.range, d))));
        assert!(f
            .consequences(&sc)
            .contains(&(Rule::ExtRangeSubClass, Triple::new(q, v.range, d))));
    }

    #[test]
    fn no_spurious_consequences_for_plain_triples() {
        let mut f = Fx::new();
        let (a, p, b) = (f.id("a"), f.id("p"), f.id("b"));
        let fact = f.add(a, p, b);
        assert!(
            f.consequences(&fact).is_empty(),
            "no schema, no consequences"
        );
    }

    #[test]
    fn type_triple_without_subclass_has_no_consequences() {
        let mut f = Fx::new();
        let (a, c) = (f.id("a"), f.id("C"));
        let v = f.vocab;
        let fact = f.add(a, v.rdf_type, c);
        assert!(f.consequences(&fact).is_empty());
    }

    #[test]
    fn self_join_on_cyclic_schema() {
        // a sc b and b sc a: consequences include a sc a and b sc b.
        let mut f = Fx::new();
        let (a, b) = (f.id("A"), f.id("B"));
        let v = f.vocab;
        let ab = f.add(a, v.sub_class_of, b);
        let _ba = f.add(b, v.sub_class_of, a);
        let cons = f.consequences(&ab);
        assert!(cons.contains(&(Rule::Rdfs11, Triple::new(a, v.sub_class_of, a))));
        assert!(cons.contains(&(Rule::Rdfs11, Triple::new(b, v.sub_class_of, b))));
    }

    #[test]
    fn rule_metadata() {
        assert_eq!(Rule::ALL.len(), 10);
        let fig2: Vec<_> = Rule::ALL.iter().filter(|r| r.in_figure2()).collect();
        assert_eq!(fig2.len(), 4);
        for r in Rule::ALL {
            assert!(!r.name().is_empty());
            assert!(r.statement().contains('⊢'));
        }
    }
}
