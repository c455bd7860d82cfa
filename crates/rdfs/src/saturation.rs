//! Graph saturation: computing `G∞` (§II-B "Graph saturation").
//!
//! Two engines compute the same fix-point:
//!
//! * [`saturate`] — the production path: close the schema once (rdfs5,
//!   rdfs11 + domain/range propagation), then derive all instance
//!   consequences in a **single pass** over the instance triples. With a
//!   closed schema, every chain of rdfs7 / rdfs2 / rdfs3 / rdfs9
//!   applications starting from a base triple collapses to one lookup in
//!   the closed maps, so no fix-point iteration over the (large) instance
//!   part is needed. This is the rule-specialisation OWLIM-class engines
//!   perform (§II-C).
//! * [`saturate_naive`] — the reference engine: generic semi-naive
//!   iteration of the immediate-entailment rules until no new triple is
//!   derived, exactly the definition of `G∞` in the paper. Used to
//!   cross-check the fast path (unit + property tests) and as the
//!   "unspecialised" arm of the ablation benchmark.
//!
//! Both assume the RDF database fragment (see [`crate::rules`]): RDFS
//! built-ins are not used as regular data.

use crate::rules::{consequences_of, Rule};
use crate::schema::Schema;
use rdf_model::{Graph, Triple, Vocab};
use rustc_hash::FxHashMap;

/// Maps a rule name onto its static registry counter
/// (`rdfs.saturate.fired_<rule>`), for the rules the engines report.
/// Registry counter names are `&'static str`, so the mapping is a match.
pub(crate) fn rule_counter(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "rdfs2" => "rdfs.saturate.fired_rdfs2",
        "rdfs3" => "rdfs.saturate.fired_rdfs3",
        "rdfs7" => "rdfs.saturate.fired_rdfs7",
        "rdfs9" => "rdfs.saturate.fired_rdfs9",
        "schema-closure" => "rdfs.saturate.fired_schema_closure",
        "structural" => "rdfs.saturate.fired_structural",
        _ => return None,
    })
}

/// Publishes a finished saturation run into the metrics registry: the run
/// counter, total/per-rule firings and the inferred-triples counter. The
/// `SaturationStats` struct stays the caller-facing façade; this only
/// mirrors it into `obs`.
pub(crate) fn publish_stats(stats: &SaturationStats) {
    let reg = obs::global();
    if !reg.is_enabled() {
        return;
    }
    reg.add("rdfs.saturate.runs", 1);
    reg.add("rdfs.saturate.inferred", stats.inferred as u64);
    reg.add("rdfs.saturate.input_triples", stats.input_triples as u64);
    reg.add("rdfs.saturate.passes", stats.passes as u64);
    for (rule, n) in &stats.rule_firings {
        reg.add("rdfs.saturate.rule_firings", *n);
        if let Some(counter) = rule_counter(rule) {
            reg.add(counter, *n);
        }
    }
}

/// Statistics of a saturation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SaturationStats {
    /// Triples in the input graph `G`.
    pub input_triples: usize,
    /// Triples in the saturated graph `G∞`.
    pub output_triples: usize,
    /// Newly derived (implicit) triples: `output - input`.
    pub inferred: usize,
    /// Fix-point passes (1 for the specialised single-pass engine).
    pub passes: usize,
    /// New triples contributed per rule (naive engine only; the
    /// specialised engine reports per-category counts under the Fig. 2
    /// rule names it specialises).
    pub rule_firings: FxHashMap<&'static str, u64>,
}

/// The saturated graph together with run statistics.
#[derive(Debug, Clone)]
pub struct SaturationResult {
    /// `G∞`: the input plus every entailed triple.
    pub graph: Graph,
    /// Statistics of the run.
    pub stats: SaturationStats,
}

/// Computes `G∞` with the schema-closure-specialised single-pass engine.
pub fn saturate(g: &Graph, vocab: &Vocab) -> SaturationResult {
    let schema = Schema::extract(g, vocab);
    saturate_with_schema(g, vocab, &schema)
}

/// Like [`saturate`], but reuses an already-extracted (and closed) schema —
/// the incremental maintainers call this to avoid re-extracting.
pub fn saturate_with_schema(g: &Graph, vocab: &Vocab, schema: &Schema) -> SaturationResult {
    let _span = obs::global().span("rdfs.saturate.run");
    let mut out = g.clone();
    let mut firings: FxHashMap<&'static str, u64> = FxHashMap::default();

    // 1. The closed schema is part of G∞.
    let mut schema_new = 0u64;
    for t in schema.closed_triples(vocab) {
        if out.insert(t) {
            schema_new += 1;
        }
    }
    if schema_new > 0 {
        firings.insert("schema-closure", schema_new);
    }

    // 2. Single pass over the *base* instance triples. Consequences are
    // deduplicated inline against `out` (a clone of `g`, so iteration over
    // `g` is unaffected) instead of buffering every raw emission in an
    // unbounded Vec; emission order is unchanged, so per-rule firing
    // counts are identical to the buffered formulation.
    for t in g.iter() {
        derive_instance_consequences(&t, vocab, schema, |rule, c| {
            if out.insert(c) {
                *firings.entry(rule).or_insert(0) += 1;
            }
        });
    }

    let stats = SaturationStats {
        input_triples: g.len(),
        output_triples: out.len(),
        inferred: out.len() - g.len(),
        passes: 1,
        rule_firings: firings,
    };
    publish_stats(&stats);
    SaturationResult { graph: out, stats }
}

/// Emits every instance-level consequence of base triple `t` under the
/// closed `schema`. This is the complete consequence set `cons(t)`: the
/// counting maintainer's bookkeeping is built on it too.
pub(crate) fn derive_instance_consequences(
    t: &Triple,
    vocab: &Vocab,
    schema: &Schema,
    mut emit: impl FnMut(&'static str, Triple),
) {
    if t.p == vocab.rdf_type {
        for &c in schema.super_classes(t.o) {
            emit("rdfs9", Triple::new(t.s, vocab.rdf_type, c));
        }
    } else if !vocab.is_schema_property(t.p) {
        for &p2 in schema.super_properties(t.p) {
            emit("rdfs7", Triple::new(t.s, p2, t.o));
        }
        for &c in schema.domains(t.p) {
            emit("rdfs2", Triple::new(t.s, vocab.rdf_type, c));
        }
        for &c in schema.ranges(t.p) {
            emit("rdfs3", Triple::new(t.o, vocab.rdf_type, c));
        }
    }
    // Schema triples need no per-triple work: their closure was added wholesale.
}

/// Computes the *full-RDFS* saturation: the database-fragment closure of
/// [`saturate`] **plus** the structural rules of the RDF(S) standard that
/// the fragment omits — "one first chooses an RDF fragment and saturates
/// the RDF graph accordingly" (§II-B). Added on top of `G∞`:
///
/// * rdf1 — every property used in a triple is typed `rdf:Property`;
/// * rdfs4a/4b — every subject and object is typed `rdfs:Resource` (the
///   graph layer is id-opaque, so literal objects get the generalised
///   `rdfs:Resource` typing too; callers with a dictionary can
///   post-filter);
/// * rdfs6/rdfs10 — reflexivity: every used property is its own
///   subproperty, every known class its own subclass and a subclass of
///   `rdfs:Resource`;
/// * everything used as a class (object of `rdf:type`, endpoint of
///   `subClassOf`, domain/range target) is typed `rdfs:Class`.
///
/// The structural pass iterates to its own fix-point (new triples mention
/// `rdf:type`, `rdfs:Class`, … which are themselves resources/properties).
/// These rules inflate the output heavily — that is the point: the
/// fragment choice is a *performance* choice — so they are opt-in.
///
/// The fix-point is **frontier-driven**: every structural rule depends on
/// a single triple (or a single class occurrence), so each pass only needs
/// to examine the triples added by the previous pass, never a fresh
/// snapshot of the whole graph. Classes are tracked in a seen-set so their
/// per-class triples are emitted once. The test suite asserts this
/// computes exactly the same closure as the snapshot-per-pass formulation.
pub fn saturate_full(g: &Graph, vocab: &Vocab) -> SaturationResult {
    let base = saturate(g, vocab);
    let mut out = base.graph;
    let mut structural = 0u64;
    let mut passes = base.stats.passes;

    let mut frontier: Vec<Triple> = out.iter().collect();
    let mut classes_seen: rustc_hash::FxHashSet<rdf_model::TermId> =
        rustc_hash::FxHashSet::default();
    while !frontier.is_empty() {
        passes += 1;
        let mut pending: Vec<Triple> = Vec::new();
        for t in &frontier {
            // rdf1
            pending.push(Triple::new(t.p, vocab.rdf_type, vocab.rdf_property));
            // rdfs6 (reflexive subproperty for used properties)
            pending.push(Triple::new(t.p, vocab.sub_property_of, t.p));
            // rdfs4a/4b
            pending.push(Triple::new(t.s, vocab.rdf_type, vocab.rdfs_resource));
            pending.push(Triple::new(t.o, vocab.rdf_type, vocab.rdfs_resource));
            // class positions — each class's triples are emitted the first
            // time it is seen in class position (inserts are idempotent,
            // so once is enough)
            let mut class = |c: rdf_model::TermId, pending: &mut Vec<Triple>| {
                if classes_seen.insert(c) {
                    pending.push(Triple::new(c, vocab.rdf_type, vocab.rdfs_class));
                    // rdfs10 (reflexive subclass for known classes)
                    pending.push(Triple::new(c, vocab.sub_class_of, c));
                    pending.push(Triple::new(c, vocab.sub_class_of, vocab.rdfs_resource));
                }
            };
            if t.p == vocab.rdf_type {
                class(t.o, &mut pending);
            } else if t.p == vocab.sub_class_of {
                class(t.s, &mut pending);
                class(t.o, &mut pending);
            } else if t.p == vocab.domain || t.p == vocab.range {
                class(t.o, &mut pending);
            }
        }
        frontier.clear();
        for t in pending {
            if out.insert(t) {
                structural += 1;
                frontier.push(t);
            }
        }
    }

    // The base pass already published its own stats; mirror only the
    // structural delta so firings are not double-counted.
    let reg = obs::global();
    reg.add("rdfs.saturate.rule_firings", structural);
    reg.add("rdfs.saturate.fired_structural", structural);

    let mut rule_firings = base.stats.rule_firings;
    rule_firings.insert("structural", structural);
    let stats = SaturationStats {
        input_triples: g.len(),
        output_triples: out.len(),
        inferred: out.len() - g.len(),
        passes,
        rule_firings,
    };
    SaturationResult { graph: out, stats }
}

/// Computes `G∞` by generic semi-naive fix-point iteration of the
/// immediate entailment rules — the literal definition of saturation.
pub fn saturate_naive(g: &Graph, vocab: &Vocab) -> SaturationResult {
    let _span = obs::global().span("rdfs.saturate.naive");
    let mut out = g.clone();
    let mut frontier: Vec<Triple> = g.iter().collect();
    let mut firings: FxHashMap<&'static str, u64> = FxHashMap::default();
    let mut passes = 0;
    let mut buf: Vec<(Rule, Triple)> = Vec::new();

    while !frontier.is_empty() {
        passes += 1;
        buf.clear();
        for t in &frontier {
            consequences_of(t, &out, vocab, |rule, c| buf.push((rule, c)));
        }
        frontier.clear();
        for &(rule, c) in &buf {
            if out.insert(c) {
                *firings.entry(rule.name()).or_insert(0) += 1;
                frontier.push(c);
            }
        }
    }

    let stats = SaturationStats {
        input_triples: g.len(),
        output_triples: out.len(),
        inferred: out.len() - g.len(),
        passes,
        rule_firings: firings,
    };
    SaturationResult { graph: out, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dictionary, Pattern, TermId};

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

    /// The paper's §II-A example: domain typing entails `Anne rdf:type Person`.
    #[test]
    fn paper_domain_example() {
        let mut f = Fx::new();
        let (hf, person, anne, marie) = (
            f.id("hasFriend"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
        );
        let v = f.vocab;
        f.add(hf, v.domain, person);
        f.add(anne, hf, marie);
        for sat in [saturate(&f.g, &v), saturate_naive(&f.g, &v)] {
            assert!(sat.graph.contains(&Triple::new(anne, v.rdf_type, person)));
            assert_eq!(sat.stats.inferred, 1);
        }
    }

    /// A multi-hop chain: subproperty → domain → subclass.
    #[test]
    fn chained_inference() {
        let mut f = Fx::new();
        let (teaches, worksfor, prof, person, bob, uni) = (
            f.id("teaches"),
            f.id("worksFor"),
            f.id("Professor"),
            f.id("Person"),
            f.id("Bob"),
            f.id("Uni"),
        );
        let v = f.vocab;
        f.add(teaches, v.sub_property_of, worksfor);
        f.add(worksfor, v.domain, prof);
        f.add(prof, v.sub_class_of, person);
        f.add(bob, teaches, uni);

        let sat = saturate(&f.g, &v);
        // bob teaches uni ⊢ bob worksFor uni ⊢ bob type Professor ⊢ bob type Person
        assert!(sat.graph.contains(&Triple::new(bob, worksfor, uni)));
        assert!(sat.graph.contains(&Triple::new(bob, v.rdf_type, prof)));
        assert!(sat.graph.contains(&Triple::new(bob, v.rdf_type, person)));
        // and the schema closure: teaches domain Professor (and Person)
        assert!(sat.graph.contains(&Triple::new(teaches, v.domain, prof)));
        assert!(sat.graph.contains(&Triple::new(teaches, v.domain, person)));
        assert!(sat.graph.contains(&Triple::new(worksfor, v.domain, person)));
    }

    #[test]
    fn specialised_equals_naive_on_fixtures() {
        let mut f = Fx::new();
        let ids: Vec<TermId> = (0..8).map(|i| f.id(&format!("c{i}"))).collect();
        let props: Vec<TermId> = (0..4).map(|i| f.id(&format!("p{i}"))).collect();
        let inst: Vec<TermId> = (0..10).map(|i| f.id(&format!("x{i}"))).collect();
        let v = f.vocab;
        // class chain + a diamond
        for w in ids.windows(2) {
            f.add(w[0], v.sub_class_of, w[1]);
        }
        f.add(ids[0], v.sub_class_of, ids[3]);
        // property chain with domain/range
        f.add(props[0], v.sub_property_of, props[1]);
        f.add(props[1], v.sub_property_of, props[2]);
        f.add(props[1], v.domain, ids[2]);
        f.add(props[2], v.range, ids[4]);
        // instance data
        for (i, &x) in inst.iter().enumerate() {
            f.add(x, props[i % 3], inst[(i + 1) % inst.len()]);
            if i % 2 == 0 {
                f.add(x, v.rdf_type, ids[i % 4]);
            }
        }
        let fast = saturate(&f.g, &v);
        let naive = saturate_naive(&f.g, &v);
        assert_eq!(fast.graph, naive.graph);
        assert_eq!(fast.stats.inferred, naive.stats.inferred);
        assert!(
            naive.stats.passes > 1,
            "fixture exercises multi-pass fix-point"
        );
    }

    #[test]
    fn saturation_is_idempotent() {
        let mut f = Fx::new();
        let (a, b, c, x) = (f.id("A"), f.id("B"), f.id("C"), f.id("x"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, c);
        f.add(x, v.rdf_type, a);
        let once = saturate(&f.g, &v);
        let twice = saturate(&once.graph, &v);
        assert_eq!(once.graph, twice.graph);
        assert_eq!(twice.stats.inferred, 0);
    }

    #[test]
    fn saturation_contains_input() {
        let mut f = Fx::new();
        let (a, p, b) = (f.id("a"), f.id("p"), f.id("b"));
        let v = f.vocab;
        f.add(a, p, b);
        let sat = saturate(&f.g, &v);
        assert!(f.g.is_subgraph_of(&sat.graph));
    }

    #[test]
    fn empty_graph_saturates_to_empty() {
        let mut d = Dictionary::new();
        let v = Vocab::intern(&mut d);
        let sat = saturate(&Graph::new(), &v);
        assert!(sat.graph.is_empty());
        assert_eq!(sat.stats.passes, 1);
        assert_eq!(sat.stats.inferred, 0);
    }

    #[test]
    fn schema_only_graph_closes_schema() {
        let mut f = Fx::new();
        let (a, b, c) = (f.id("A"), f.id("B"), f.id("C"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, c);
        let sat = saturate(&f.g, &v);
        assert!(sat.graph.contains(&Triple::new(a, v.sub_class_of, c)));
        assert_eq!(sat.stats.inferred, 1);
    }

    #[test]
    fn cyclic_schema_terminates() {
        let mut f = Fx::new();
        let (a, b, x) = (f.id("A"), f.id("B"), f.id("x"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, a);
        f.add(x, v.rdf_type, a);
        let fast = saturate(&f.g, &v);
        let naive = saturate_naive(&f.g, &v);
        assert_eq!(fast.graph, naive.graph);
        assert!(fast.graph.contains(&Triple::new(x, v.rdf_type, b)));
        assert!(
            fast.graph.contains(&Triple::new(a, v.sub_class_of, a)),
            "cycle self-edges"
        );
    }

    /// Reference implementation of the structural fix-point that
    /// re-snapshots the whole graph on every pass — the formulation
    /// [`saturate_full`]'s frontier-driven loop replaced. Kept here so the
    /// tests can assert the two closures are identical.
    fn saturate_full_snapshot(g: &Graph, vocab: &Vocab) -> Graph {
        let mut out = saturate(g, vocab).graph;
        loop {
            let snapshot: Vec<Triple> = out.iter().collect();
            let mut pending: Vec<Triple> = Vec::new();
            let mut classes: rustc_hash::FxHashSet<TermId> = rustc_hash::FxHashSet::default();
            for t in &snapshot {
                pending.push(Triple::new(t.p, vocab.rdf_type, vocab.rdf_property));
                pending.push(Triple::new(t.p, vocab.sub_property_of, t.p));
                pending.push(Triple::new(t.s, vocab.rdf_type, vocab.rdfs_resource));
                pending.push(Triple::new(t.o, vocab.rdf_type, vocab.rdfs_resource));
                if t.p == vocab.rdf_type {
                    classes.insert(t.o);
                } else if t.p == vocab.sub_class_of {
                    classes.insert(t.s);
                    classes.insert(t.o);
                } else if t.p == vocab.domain || t.p == vocab.range {
                    classes.insert(t.o);
                }
            }
            for c in classes {
                pending.push(Triple::new(c, vocab.rdf_type, vocab.rdfs_class));
                pending.push(Triple::new(c, vocab.sub_class_of, c));
                pending.push(Triple::new(c, vocab.sub_class_of, vocab.rdfs_resource));
            }
            let mut added = 0u64;
            for t in pending {
                if out.insert(t) {
                    added += 1;
                }
            }
            if added == 0 {
                return out;
            }
        }
    }

    #[test]
    fn frontier_full_saturation_matches_snapshot_reference() {
        let mut f = Fx::new();
        let (cat, mammal, tom, likes, ada, p) = (
            f.id("Cat"),
            f.id("Mammal"),
            f.id("tom"),
            f.id("likes"),
            f.id("ada"),
            f.id("p"),
        );
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        f.add(tom, likes, ada);
        f.add(p, v.domain, cat);
        f.add(ada, p, tom);
        assert_eq!(
            saturate_full(&f.g, &v).graph,
            saturate_full_snapshot(&f.g, &v)
        );
        // Empty graph too.
        assert_eq!(
            saturate_full(&Graph::new(), &v).graph,
            saturate_full_snapshot(&Graph::new(), &v)
        );
    }

    #[test]
    fn stats_rule_firings_cover_figure2_rules() {
        let mut f = Fx::new();
        let (p, q, c, d, x, y) = (
            f.id("p"),
            f.id("q"),
            f.id("C"),
            f.id("D"),
            f.id("x"),
            f.id("y"),
        );
        let v = f.vocab;
        f.add(p, v.sub_property_of, q);
        f.add(q, v.domain, c);
        f.add(q, v.range, d);
        f.add(x, p, y);
        let sat = saturate(&f.g, &v);
        for rule in ["rdfs2", "rdfs3", "rdfs7"] {
            assert!(
                sat.stats.rule_firings.get(rule).copied().unwrap_or(0) > 0,
                "{rule} should fire"
            );
        }
        // Check derived triples concretely.
        assert!(sat.graph.contains(&Triple::new(x, q, y)));
        assert!(sat.graph.contains(&Triple::new(x, v.rdf_type, c)));
        assert!(sat.graph.contains(&Triple::new(y, v.rdf_type, d)));
    }

    #[test]
    fn full_rdfs_adds_structural_triples_and_terminates() {
        let mut f = Fx::new();
        let (cat, mammal, tom, likes, ada) = (
            f.id("Cat"),
            f.id("Mammal"),
            f.id("tom"),
            f.id("likes"),
            f.id("ada"),
        );
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        f.add(tom, likes, ada);

        let full = saturate_full(&f.g, &v);
        let fragment = saturate(&f.g, &v);
        assert!(
            fragment.graph.is_subgraph_of(&full.graph),
            "full ⊇ fragment"
        );
        // rdf1: likes is a Property
        assert!(full
            .graph
            .contains(&Triple::new(likes, v.rdf_type, v.rdf_property)));
        // rdfs4: tom and ada are Resources
        assert!(full
            .graph
            .contains(&Triple::new(tom, v.rdf_type, v.rdfs_resource)));
        assert!(full
            .graph
            .contains(&Triple::new(ada, v.rdf_type, v.rdfs_resource)));
        // class machinery
        assert!(full
            .graph
            .contains(&Triple::new(cat, v.rdf_type, v.rdfs_class)));
        assert!(full.graph.contains(&Triple::new(cat, v.sub_class_of, cat)));
        assert!(full
            .graph
            .contains(&Triple::new(cat, v.sub_class_of, v.rdfs_resource)));
        // meta-closure reached a fix-point: rdf:type itself is a Property
        assert!(full
            .graph
            .contains(&Triple::new(v.rdf_type, v.rdf_type, v.rdf_property)));
        // and the blow-up is substantially larger than the fragment's
        assert!(full.graph.len() > fragment.graph.len() + 10);
        // idempotent
        let twice = saturate_full(&full.graph, &v);
        assert_eq!(twice.graph, full.graph);
    }

    #[test]
    fn literal_style_objects_flow_through_range_rule() {
        // The engine is id-opaque: range typing applies to whatever the
        // object id denotes (generalised-triple semantics, documented).
        let mut f = Fx::new();
        let (p, c, x) = (f.id("p"), f.id("C"), f.id("x"));
        let lit = f.dict.encode(&rdf_model::Term::literal("42"));
        let v = f.vocab;
        f.add(p, v.range, c);
        f.add(x, p, lit);
        let sat = saturate(&f.g, &v);
        assert!(sat.graph.contains(&Triple::new(lit, v.rdf_type, c)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// (subclass, subproperty, domain, range, facts, typings) pairs.
        type GraphParts = (
            Vec<(u8, u8)>,
            Vec<(u8, u8)>,
            Vec<(u8, u8)>,
            Vec<(u8, u8)>,
            Vec<(u8, u8, u8)>,
            Vec<(u8, u8)>,
        );

        /// Random graphs within the database fragment: schema triples over a
        /// small class/property universe plus instance triples.
        fn arb_graph() -> impl Strategy<Value = GraphParts> {
            (
                proptest::collection::vec((0u8..6, 0u8..6), 0..8), // subclass pairs
                proptest::collection::vec((0u8..5, 0u8..5), 0..6), // subproperty pairs
                proptest::collection::vec((0u8..5, 0u8..6), 0..5), // domain pairs
                proptest::collection::vec((0u8..5, 0u8..6), 0..5), // range pairs
                proptest::collection::vec((0u8..8, 0u8..5, 0u8..8), 0..20), // s p o
                proptest::collection::vec((0u8..8, 0u8..6), 0..10), // typing
            )
        }

        fn build(parts: &GraphParts) -> (Graph, Vocab) {
            let mut dict = Dictionary::new();
            let vocab = Vocab::intern(&mut dict);
            let class = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/C{i}"));
            let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
            let node = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
            let mut g = Graph::new();
            for &(a, b) in &parts.0 {
                let (a, b) = (class(&mut dict, a), class(&mut dict, b));
                g.insert(Triple::new(a, vocab.sub_class_of, b));
            }
            for &(a, b) in &parts.1 {
                let (a, b) = (prop(&mut dict, a), prop(&mut dict, b));
                g.insert(Triple::new(a, vocab.sub_property_of, b));
            }
            for &(p, c) in &parts.2 {
                let (p, c) = (prop(&mut dict, p), class(&mut dict, c));
                g.insert(Triple::new(p, vocab.domain, c));
            }
            for &(p, c) in &parts.3 {
                let (p, c) = (prop(&mut dict, p), class(&mut dict, c));
                g.insert(Triple::new(p, vocab.range, c));
            }
            for &(s, p, o) in &parts.4 {
                let (s, p, o) = (node(&mut dict, s), prop(&mut dict, p), node(&mut dict, o));
                g.insert(Triple::new(s, p, o));
            }
            for &(s, c) in &parts.5 {
                let (s, c) = (node(&mut dict, s), class(&mut dict, c));
                g.insert(Triple::new(s, vocab.rdf_type, c));
            }
            (g, vocab)
        }

        proptest! {
            /// The specialised single-pass engine computes exactly the
            /// naive fix-point, on arbitrary fragment graphs (the
            /// generator covers cyclic schemas, since subclass/subproperty
            /// pairs are drawn freely, and the empty graph, since every
            /// part may be empty).
            #[test]
            fn specialised_equals_naive(parts in arb_graph()) {
                let (g, vocab) = build(&parts);
                let fast = saturate(&g, &vocab);
                let naive = saturate_naive(&g, &vocab);
                prop_assert_eq!(&fast.graph, &naive.graph);
            }

            /// Frontier-driven full-RDFS saturation equals the
            /// snapshot-per-pass reference on arbitrary fragment graphs.
            #[test]
            fn frontier_full_equals_snapshot_full(parts in arb_graph()) {
                let (g, vocab) = build(&parts);
                prop_assert_eq!(
                    saturate_full(&g, &vocab).graph,
                    super::saturate_full_snapshot(&g, &vocab)
                );
            }

            /// Saturation is monotone: G ⊆ H implies G∞ ⊆ H∞.
            #[test]
            fn saturation_is_monotone(parts in arb_graph(), drop in 0usize..10) {
                let (h, vocab) = build(&parts);
                let mut g = h.clone();
                // remove up to `drop` arbitrary triples to get a subgraph
                let victims: Vec<_> = g.iter().take(drop).collect();
                for t in victims { g.remove(&t); }
                let sat_g = saturate(&g, &vocab);
                let sat_h = saturate(&h, &vocab);
                prop_assert!(sat_g.graph.is_subgraph_of(&sat_h.graph));
            }

            /// Idempotence on random graphs: (G∞)∞ = G∞.
            #[test]
            fn saturation_idempotent(parts in arb_graph()) {
                let (g, vocab) = build(&parts);
                let once = saturate(&g, &vocab);
                let twice = saturate(&once.graph, &vocab);
                prop_assert_eq!(&once.graph, &twice.graph);
            }

            /// `rdf_model::Pattern` sanity on the saturated output: every
            /// type assertion entailed for a subclass instance also holds
            /// for its superclasses.
            #[test]
            fn superclass_typing_complete(parts in arb_graph()) {
                let (g, vocab) = build(&parts);
                let sat = saturate(&g, &vocab).graph;
                let schema = Schema::extract(&sat, &vocab);
                let mut ok = true;
                sat.for_each_match(&Pattern::new(None, Some(vocab.rdf_type), None), |t| {
                    for &sup in schema.super_classes(t.o) {
                        if !sat.contains(&Triple::new(t.s, vocab.rdf_type, sup)) {
                            ok = false;
                        }
                    }
                });
                prop_assert!(ok);
            }
        }
    }
}
