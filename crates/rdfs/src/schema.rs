//! RDFS schema extraction and closure.
//!
//! The paper's Fig. 1 splits an RDF graph into *assertions* (class and
//! property assertions) and *constraints* (the four RDFS schema statements).
//! [`Schema`] materialises the constraint part, closed under the
//! schema-level entailment rules:
//!
//! * rdfs11 — `subClassOf` is transitive;
//! * rdfs5 — `subPropertyOf` is transitive;
//! * domain/range propagation — if `p ⊑ p'` then `p` inherits the
//!   domains/ranges of `p'`, and a domain/range class propagates up the
//!   class hierarchy.
//!
//! These schema-level rules do not change which *instance* triples are
//! entailed (each is subsumed by a chain of rdfs7/rdfs2/rdfs3/rdfs9
//! applications), but closing the schema once up front lets saturation run
//! in a single pass over the instance triples and gives reformulation the
//! inverse maps it needs. This mirrors the "database fragment of RDF" of
//! Goasdoué et al. (EDBT 2013), the paper's ref. \[12\].

use rdf_model::{Graph, Pattern, TermId, Triple, Vocab};
use rustc_hash::{FxHashMap, FxHashSet};

type IdSetMap = FxHashMap<TermId, FxHashSet<TermId>>;

/// The RDFS constraints of a graph, closed under schema-level entailment.
///
/// All accessors return *strict* relationships (a class is not its own
/// superclass) unless stated otherwise; reformulation adds reflexivity
/// where the semantics requires it.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Direct (asserted) constraints, prior to closure.
    direct_sub_class: IdSetMap,
    direct_sub_property: IdSetMap,
    direct_domain: IdSetMap,
    direct_range: IdSetMap,
    /// Closed maps.
    super_classes: IdSetMap,
    sub_classes: IdSetMap,
    super_properties: IdSetMap,
    sub_properties: IdSetMap,
    domains: IdSetMap,
    ranges: IdSetMap,
    /// Inverse closed maps: class -> properties having it as domain/range.
    props_with_domain: IdSetMap,
    props_with_range: IdSetMap,
}

/// Transitive closure (strict) of a direct successor map, cycle-tolerant.
fn transitive_closure(direct: &IdSetMap) -> IdSetMap {
    let mut closed: IdSetMap = FxHashMap::default();
    for &start in direct.keys() {
        let mut reach: FxHashSet<TermId> = FxHashSet::default();
        let mut stack: Vec<TermId> = direct[&start].iter().copied().collect();
        while let Some(n) = stack.pop() {
            if reach.insert(n) {
                if let Some(next) = direct.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        // Strictness: a node reachable from itself through a cycle stays in
        // its own closure (the cycle makes the classes equivalent), which is
        // what RDFS entailment prescribes: `c1 sc c2` and `c2 sc c1` entail
        // `c1 sc c1` via rdfs11.
        closed.insert(start, reach);
    }
    closed
}

fn invert(map: &IdSetMap) -> IdSetMap {
    let mut inv: IdSetMap = FxHashMap::default();
    for (&k, vs) in map {
        for &v in vs {
            inv.entry(v).or_default().insert(k);
        }
    }
    inv
}

static EMPTY: once_empty::Empty = once_empty::Empty::new();

/// A tiny shim giving us a `&'static FxHashSet<TermId>` empty set to return
/// from accessors without allocating.
mod once_empty {
    use rdf_model::TermId;
    use rustc_hash::FxHashSet;
    use std::sync::OnceLock;

    pub struct Empty(OnceLock<FxHashSet<TermId>>);

    impl Empty {
        pub const fn new() -> Self {
            Empty(OnceLock::new())
        }
        pub fn get(&self) -> &FxHashSet<TermId> {
            self.0.get_or_init(FxHashSet::default)
        }
    }
}

impl Schema {
    /// Extracts and closes the schema of `graph`.
    pub fn extract(graph: &Graph, vocab: &Vocab) -> Self {
        let mut s = Schema::default();
        let collect = |prop: TermId, into: &mut IdSetMap| {
            graph.for_each_match(&Pattern::new(None, Some(prop), None), |t| {
                into.entry(t.s).or_default().insert(t.o);
            });
        };
        collect(vocab.sub_class_of, &mut s.direct_sub_class);
        collect(vocab.sub_property_of, &mut s.direct_sub_property);
        collect(vocab.domain, &mut s.direct_domain);
        collect(vocab.range, &mut s.direct_range);
        s.close();
        s
    }

    /// Builds a schema from explicit constraint lists (used by the workload
    /// generator and tests). Each slice holds `(subject, object)` pairs.
    pub fn from_constraints(
        sub_class: &[(TermId, TermId)],
        sub_property: &[(TermId, TermId)],
        domain: &[(TermId, TermId)],
        range: &[(TermId, TermId)],
    ) -> Self {
        let mut s = Schema::default();
        let fill = |pairs: &[(TermId, TermId)], into: &mut IdSetMap| {
            for &(a, b) in pairs {
                into.entry(a).or_default().insert(b);
            }
        };
        fill(sub_class, &mut s.direct_sub_class);
        fill(sub_property, &mut s.direct_sub_property);
        fill(domain, &mut s.direct_domain);
        fill(range, &mut s.direct_range);
        s.close();
        s
    }

    /// This schema with the constraint `t` asserted (`insert`) or
    /// retracted, re-closed: what [`Schema::extract`] returns for the
    /// graph that changed by `t`, without reading the graph. `t`'s
    /// property must be one of the four schema properties.
    pub fn with_constraint(&self, t: &Triple, vocab: &Vocab, insert: bool) -> Self {
        let mut s = Schema {
            direct_sub_class: self.direct_sub_class.clone(),
            direct_sub_property: self.direct_sub_property.clone(),
            direct_domain: self.direct_domain.clone(),
            direct_range: self.direct_range.clone(),
            ..Schema::default()
        };
        let direct = if t.p == vocab.sub_class_of {
            &mut s.direct_sub_class
        } else if t.p == vocab.sub_property_of {
            &mut s.direct_sub_property
        } else if t.p == vocab.domain {
            &mut s.direct_domain
        } else {
            debug_assert_eq!(t.p, vocab.range, "not a schema property");
            &mut s.direct_range
        };
        if insert {
            direct.entry(t.s).or_default().insert(t.o);
        } else if let Some(objects) = direct.get_mut(&t.s) {
            objects.remove(&t.o);
            if objects.is_empty() {
                direct.remove(&t.s);
            }
        }
        s.close();
        s
    }

    /// (Re)computes all closed maps from the direct maps.
    fn close(&mut self) {
        self.super_classes = transitive_closure(&self.direct_sub_class);
        self.super_properties = transitive_closure(&self.direct_sub_property);

        // Closed domains: p inherits domains from every (closed) superproperty,
        // and each domain class propagates to its (closed) superclasses.
        let lift = |direct: &IdSetMap, super_props: &IdSetMap, super_classes: &IdSetMap| {
            let mut out: IdSetMap = FxHashMap::default();
            // Every property that has a domain directly or via a superproperty.
            let mut props: FxHashSet<TermId> = direct.keys().copied().collect();
            props.extend(super_props.keys().copied());
            for &p in &props {
                let mut classes: FxHashSet<TermId> = FxHashSet::default();
                let add_from = |q: TermId, classes: &mut FxHashSet<TermId>| {
                    if let Some(cs) = direct.get(&q) {
                        for &c in cs {
                            classes.insert(c);
                            if let Some(sup) = super_classes.get(&c) {
                                classes.extend(sup.iter().copied());
                            }
                        }
                    }
                };
                add_from(p, &mut classes);
                if let Some(sups) = super_props.get(&p) {
                    for &q in sups {
                        add_from(q, &mut classes);
                    }
                }
                if !classes.is_empty() {
                    out.insert(p, classes);
                }
            }
            out
        };
        self.domains = lift(
            &self.direct_domain,
            &self.super_properties,
            &self.super_classes,
        );
        self.ranges = lift(
            &self.direct_range,
            &self.super_properties,
            &self.super_classes,
        );

        self.sub_classes = invert(&self.super_classes);
        self.sub_properties = invert(&self.super_properties);
        self.props_with_domain = invert(&self.domains);
        self.props_with_range = invert(&self.ranges);
    }

    /// All strict superclasses of `c` (transitive).
    pub fn super_classes(&self, c: TermId) -> &FxHashSet<TermId> {
        self.super_classes.get(&c).unwrap_or(EMPTY.get())
    }

    /// All strict subclasses of `c` (transitive) — the reformulation map.
    pub fn sub_classes(&self, c: TermId) -> &FxHashSet<TermId> {
        self.sub_classes.get(&c).unwrap_or(EMPTY.get())
    }

    /// All strict superproperties of `p` (transitive).
    pub fn super_properties(&self, p: TermId) -> &FxHashSet<TermId> {
        self.super_properties.get(&p).unwrap_or(EMPTY.get())
    }

    /// All strict subproperties of `p` (transitive) — the reformulation map.
    pub fn sub_properties(&self, p: TermId) -> &FxHashSet<TermId> {
        self.sub_properties.get(&p).unwrap_or(EMPTY.get())
    }

    /// The closed domain classes of `p`: every class `c` such that
    /// `s p o ⊢ s rdf:type c`.
    pub fn domains(&self, p: TermId) -> &FxHashSet<TermId> {
        self.domains.get(&p).unwrap_or(EMPTY.get())
    }

    /// The closed range classes of `p`: every class `c` such that
    /// `s p o ⊢ o rdf:type c`.
    pub fn ranges(&self, p: TermId) -> &FxHashSet<TermId> {
        self.ranges.get(&p).unwrap_or(EMPTY.get())
    }

    /// Properties whose closed domain includes `c` (inverse of [`Self::domains`]).
    pub fn properties_with_domain(&self, c: TermId) -> &FxHashSet<TermId> {
        self.props_with_domain.get(&c).unwrap_or(EMPTY.get())
    }

    /// Properties whose closed range includes `c` (inverse of [`Self::ranges`]).
    pub fn properties_with_range(&self, c: TermId) -> &FxHashSet<TermId> {
        self.props_with_range.get(&c).unwrap_or(EMPTY.get())
    }

    /// Emits the closed schema as triples (the schema part of `G∞`).
    pub fn closed_triples(&self, vocab: &Vocab) -> Vec<Triple> {
        let mut out = Vec::new();
        let emit = |map: &IdSetMap, prop: TermId, out: &mut Vec<Triple>| {
            for (&s, os) in map {
                for &o in os {
                    out.push(Triple::new(s, prop, o));
                }
            }
        };
        emit(&self.super_classes, vocab.sub_class_of, &mut out);
        emit(&self.super_properties, vocab.sub_property_of, &mut out);
        emit(&self.domains, vocab.domain, &mut out);
        emit(&self.ranges, vocab.range, &mut out);
        out
    }

    /// Number of direct (asserted) constraints.
    pub fn direct_len(&self) -> usize {
        let count = |m: &IdSetMap| m.values().map(FxHashSet::len).sum::<usize>();
        count(&self.direct_sub_class)
            + count(&self.direct_sub_property)
            + count(&self.direct_domain)
            + count(&self.direct_range)
    }

    /// Number of closed constraints.
    pub fn closed_len(&self) -> usize {
        let count = |m: &IdSetMap| m.values().map(FxHashSet::len).sum::<usize>();
        count(&self.super_classes)
            + count(&self.super_properties)
            + count(&self.domains)
            + count(&self.ranges)
    }

    /// All classes mentioned in a constraint (as sub/superclass or
    /// domain/range of some property).
    pub fn classes(&self) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        for (k, vs) in &self.direct_sub_class {
            out.insert(*k);
            out.extend(vs.iter().copied());
        }
        for vs in self
            .direct_domain
            .values()
            .chain(self.direct_range.values())
        {
            out.extend(vs.iter().copied());
        }
        out
    }

    /// All properties mentioned in a constraint.
    pub fn properties(&self) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        for (k, vs) in &self.direct_sub_property {
            out.insert(*k);
            out.extend(vs.iter().copied());
        }
        out.extend(self.direct_domain.keys().copied());
        out.extend(self.direct_range.keys().copied());
        out
    }

    /// Builds the LiteMat hierarchy-interval sidecar for this schema: one
    /// [`rdf_model::IntervalDict`] over the *direct* `subClassOf` and
    /// `subPropertyOf` edges (the class and property components are
    /// disjoint, so one numbering serves both), with every class or
    /// property mentioned only in a domain/range constraint included as a
    /// standalone node. Rebuilding this after a schema change is the
    /// interval strategy's maintenance cost.
    pub fn interval_dict(&self) -> rdf_model::IntervalDict {
        let mut edges: Vec<(TermId, TermId)> = Vec::new();
        for (&child, parents) in self
            .direct_sub_class
            .iter()
            .chain(self.direct_sub_property.iter())
        {
            edges.extend(parents.iter().map(|&p| (child, p)));
        }
        let extra: Vec<TermId> = self
            .classes()
            .into_iter()
            .chain(self.properties())
            .collect();
        rdf_model::IntervalDict::build(&edges, &extra)
    }

    /// Entities whose closed entries differ between `self` (the old schema)
    /// and `new`: returns `(affected_classes, affected_properties)`.
    ///
    /// A class is affected when its closed superclass set changed; a
    /// property when its closed superproperty, domain or range set changed.
    /// The counting maintainer uses this to touch only the base triples
    /// whose consequence sets can have changed after a schema update.
    pub fn diff_affected(&self, new: &Schema) -> (FxHashSet<TermId>, FxHashSet<TermId>) {
        fn keys_differing(a: &IdSetMap, b: &IdSetMap, out: &mut FxHashSet<TermId>) {
            for k in a.keys().chain(b.keys()) {
                if a.get(k) != b.get(k) {
                    out.insert(*k);
                }
            }
        }
        let mut classes = FxHashSet::default();
        keys_differing(&self.super_classes, &new.super_classes, &mut classes);
        let mut props = FxHashSet::default();
        keys_differing(&self.super_properties, &new.super_properties, &mut props);
        keys_differing(&self.domains, &new.domains, &mut props);
        keys_differing(&self.ranges, &new.ranges, &mut props);
        (classes, props)
    }

    /// True when the schema holds no constraint at all.
    pub fn is_empty(&self) -> bool {
        self.direct_sub_class.is_empty()
            && self.direct_sub_property.is_empty()
            && self.direct_domain.is_empty()
            && self.direct_range.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Dictionary;

    struct Fixture {
        dict: Dictionary,
        vocab: Vocab,
    }

    impl Fixture {
        fn new() -> Self {
            let mut dict = Dictionary::new();
            let vocab = Vocab::intern(&mut dict);
            Fixture { dict, vocab }
        }
        fn id(&mut self, name: &str) -> TermId {
            self.dict.encode_iri(&format!("http://ex/{name}"))
        }
    }

    /// `Student ⊑ Person ⊑ Agent`, `enrolled ⊑ memberOf`,
    /// `memberOf domain Person`, `memberOf range Org`, `Org ⊑ Agent`.
    fn university(f: &mut Fixture) -> Schema {
        let student = f.id("Student");
        let person = f.id("Person");
        let agent = f.id("Agent");
        let org = f.id("Org");
        let enrolled = f.id("enrolled");
        let member = f.id("memberOf");
        Schema::from_constraints(
            &[(student, person), (person, agent), (org, agent)],
            &[(enrolled, member)],
            &[(member, person)],
            &[(member, org)],
        )
    }

    #[test]
    fn with_constraint_matches_extract() {
        let mut f = Fixture::new();
        let (a, b, c, p, q) = (f.id("A"), f.id("B"), f.id("C"), f.id("p"), f.id("q"));
        let v = f.vocab;
        let steps = [
            (Triple::new(a, v.sub_class_of, b), true),
            (Triple::new(p, v.sub_property_of, q), true),
            (Triple::new(q, v.domain, c), true),
            (Triple::new(p, v.range, a), true),
            (Triple::new(b, v.sub_class_of, c), true),
            (Triple::new(a, v.sub_class_of, b), false),
            (Triple::new(q, v.domain, c), false),
            (Triple::new(p, v.sub_property_of, q), false),
            (Triple::new(p, v.range, a), false),
            (Triple::new(b, v.sub_class_of, c), false),
        ];
        let closed = |s: &Schema| {
            let mut ts = s.closed_triples(&v);
            ts.sort();
            ts
        };
        let mut g = Graph::new();
        let mut s = Schema::extract(&g, &v);
        for (t, insert) in steps {
            if insert {
                g.insert(t);
            } else {
                g.remove(&t);
            }
            s = s.with_constraint(&t, &v, insert);
            let expect = Schema::extract(&g, &v);
            assert_eq!(closed(&s), closed(&expect), "after {t} ({insert})");
            assert_eq!(s.is_empty(), expect.is_empty());
        }
        assert!(s.is_empty());
    }

    #[test]
    fn subclass_transitive_closure() {
        let mut f = Fixture::new();
        let s = university(&mut f);
        let (student, person, agent) = (f.id("Student"), f.id("Person"), f.id("Agent"));
        assert!(s.super_classes(student).contains(&person));
        assert!(
            s.super_classes(student).contains(&agent),
            "transitivity (rdfs11)"
        );
        assert!(!s.super_classes(student).contains(&student), "strict");
        assert!(s.sub_classes(agent).contains(&student));
        assert!(s.sub_classes(agent).contains(&person));
        assert_eq!(s.super_classes(agent).len(), 0);
    }

    #[test]
    fn subproperty_closure_and_inheritance() {
        let mut f = Fixture::new();
        let s = university(&mut f);
        let (enrolled, member) = (f.id("enrolled"), f.id("memberOf"));
        let (person, agent, org) = (f.id("Person"), f.id("Agent"), f.id("Org"));
        assert!(s.super_properties(enrolled).contains(&member));
        assert!(s.sub_properties(member).contains(&enrolled));
        // enrolled inherits memberOf's domain/range, lifted through subclass.
        assert!(s.domains(enrolled).contains(&person));
        assert!(
            s.domains(enrolled).contains(&agent),
            "domain lifted to superclass"
        );
        assert!(s.ranges(enrolled).contains(&org));
        assert!(
            s.ranges(enrolled).contains(&agent),
            "range lifted to superclass"
        );
    }

    #[test]
    fn inverse_domain_range_maps() {
        let mut f = Fixture::new();
        let s = university(&mut f);
        let (enrolled, member) = (f.id("enrolled"), f.id("memberOf"));
        let (person, agent) = (f.id("Person"), f.id("Agent"));
        assert!(s.properties_with_domain(person).contains(&member));
        assert!(s.properties_with_domain(person).contains(&enrolled));
        assert!(s.properties_with_domain(agent).contains(&member));
        assert!(s.properties_with_range(agent).contains(&member));
    }

    #[test]
    fn extract_from_graph_equals_from_constraints() {
        let mut f = Fixture::new();
        let want = university(&mut f);
        let (student, person, agent, org) =
            (f.id("Student"), f.id("Person"), f.id("Agent"), f.id("Org"));
        let (enrolled, member) = (f.id("enrolled"), f.id("memberOf"));
        let v = f.vocab;
        let mut g = Graph::new();
        g.insert(Triple::new(student, v.sub_class_of, person));
        g.insert(Triple::new(person, v.sub_class_of, agent));
        g.insert(Triple::new(org, v.sub_class_of, agent));
        g.insert(Triple::new(enrolled, v.sub_property_of, member));
        g.insert(Triple::new(member, v.domain, person));
        g.insert(Triple::new(member, v.range, org));
        // instance triples must be ignored by extraction
        let anne = f.id("Anne");
        g.insert(Triple::new(anne, enrolled, org));
        g.insert(Triple::new(anne, v.rdf_type, student));

        let got = Schema::extract(&g, &v);
        assert_eq!(got.direct_len(), want.direct_len());
        assert_eq!(got.closed_len(), want.closed_len());
        assert_eq!(got.super_classes(student), want.super_classes(student));
        assert_eq!(got.domains(enrolled), want.domains(enrolled));
    }

    #[test]
    fn cyclic_subclasses_are_handled() {
        let mut f = Fixture::new();
        let (a, b, c) = (f.id("A"), f.id("B"), f.id("C"));
        let s = Schema::from_constraints(&[(a, b), (b, a), (b, c)], &[], &[], &[]);
        // A and B are mutually subclasses; both reach C and themselves.
        assert!(s.super_classes(a).contains(&b));
        assert!(
            s.super_classes(a).contains(&a),
            "cycle entails self-superclass via rdfs11"
        );
        assert!(s.super_classes(b).contains(&a));
        assert!(s.super_classes(a).contains(&c));
        assert!(s.sub_classes(c).contains(&a));
    }

    #[test]
    fn closed_triples_emit_everything() {
        let mut f = Fixture::new();
        let s = university(&mut f);
        let v = f.vocab;
        let triples = s.closed_triples(&v);
        assert_eq!(triples.len(), s.closed_len());
        let (student, agent) = (f.id("Student"), f.id("Agent"));
        assert!(triples.contains(&Triple::new(student, v.sub_class_of, agent)));
        let (enrolled, person) = (f.id("enrolled"), f.id("Person"));
        assert!(triples.contains(&Triple::new(enrolled, v.domain, person)));
    }

    #[test]
    fn empty_schema() {
        let s = Schema::from_constraints(&[], &[], &[], &[]);
        assert!(s.is_empty());
        assert_eq!(s.closed_len(), 0);
        assert_eq!(s.direct_len(), 0);
        let mut f = Fixture::new();
        let x = f.id("X");
        assert!(s.super_classes(x).is_empty());
        assert!(s.domains(x).is_empty());
    }

    #[test]
    fn classes_and_properties_enumeration() {
        let mut f = Fixture::new();
        let s = university(&mut f);
        let classes = s.classes();
        assert!(classes.contains(&f.id("Student")));
        assert!(classes.contains(&f.id("Person")));
        assert!(classes.contains(&f.id("Org")), "range classes are classes");
        let props = s.properties();
        assert!(props.contains(&f.id("enrolled")));
        assert!(props.contains(&f.id("memberOf")));
    }

    #[test]
    fn interval_dict_mirrors_closed_hierarchy() {
        let mut f = Fixture::new();
        let s = university(&mut f);
        let d = s.interval_dict();
        // Every class/property is encoded.
        for c in s.classes().into_iter().chain(s.properties()) {
            assert!(d.coverage(c).is_some(), "term missing from IntervalDict");
        }
        // coverage(C) = {C} ∪ strict subclasses, as sets of terms.
        let person = f.id("Person");
        let cov: rustc_hash::FxHashSet<TermId> = d.members(d.coverage(person).unwrap()).collect();
        let mut expect = s.sub_classes(person).clone();
        expect.insert(person);
        assert_eq!(cov, expect);
        // Same for a property hierarchy root.
        let member_of = f.id("memberOf");
        let cov: rustc_hash::FxHashSet<TermId> =
            d.members(d.coverage(member_of).unwrap()).collect();
        let mut expect = s.sub_properties(member_of).clone();
        expect.insert(member_of);
        assert_eq!(cov, expect);
    }

    #[test]
    fn deep_chain_closure() {
        // c0 ⊑ c1 ⊑ ... ⊑ c49: closure of c0 has 49 superclasses.
        let mut f = Fixture::new();
        let ids: Vec<TermId> = (0..50).map(|i| f.id(&format!("c{i}"))).collect();
        let pairs: Vec<_> = ids.windows(2).map(|w| (w[0], w[1])).collect();
        let s = Schema::from_constraints(&pairs, &[], &[], &[]);
        assert_eq!(s.super_classes(ids[0]).len(), 49);
        assert_eq!(s.sub_classes(ids[49]).len(), 49);
        assert_eq!(s.super_classes(ids[25]).len(), 24);
    }
}
