//! Criterion bench behind T-REF: reformulation time per LUBM query and
//! per synthetic class-tree shape.

use bench::{lubm_workload, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdfs::Schema;
use reformulation::reformulate;
use std::hint::black_box;
use workload::synth::{generate as synth_generate, SynthConfig};

fn bench_lubm_queries(c: &mut Criterion) {
    let (ds, qs) = lubm_workload(Scale::Small);
    let schema = Schema::extract(&ds.graph, &ds.vocab);
    let mut group = c.benchmark_group("reformulate/lubm");
    for (name, q) in &qs {
        group.bench_with_input(BenchmarkId::from_parameter(name), q, |b, q| {
            b.iter(|| black_box(reformulate(q, &schema, &ds.vocab).unwrap()))
        });
    }
    group.finish();
}

fn bench_tree_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("reformulate/tree");
    for (depth, fanout) in [(2usize, 2usize), (3, 2), (3, 3)] {
        let mut w = synth_generate(&SynthConfig {
            class_depth: depth,
            class_fanout: fanout,
            individuals: 10,
            edges: 20,
            typings: 10,
            ..Default::default()
        });
        let schema = Schema::extract(&w.dataset.graph, &w.dataset.vocab);
        let root = w.root_class;
        let q = w.type_query(root);
        let vocab = w.dataset.vocab;
        group.bench_function(
            BenchmarkId::from_parameter(format!("d{depth}f{fanout}")),
            |b| b.iter(|| black_box(reformulate(&q, &schema, &vocab).unwrap())),
        );
    }
    group.finish();
}

/// Ablation: raw rewriting vs minimisation+pruning, and the evaluation
/// cost of each output, on the join-heavy Q9.
fn bench_pruning_ablation(c: &mut Criterion) {
    use reformulation::{reformulate_with, Options};
    use sparql::evaluate;

    let (ds, qs) = lubm_workload(Scale::Small);
    let schema = Schema::extract(&ds.graph, &ds.vocab);
    let (_, q9) = qs.iter().find(|(n, _)| n == "Q9").expect("Q9 exists");

    let mut group = c.benchmark_group("reformulate/ablation");
    group.bench_function("rewrite_raw", |b| {
        b.iter(|| black_box(reformulate_with(q9, &schema, &ds.vocab, Options::raw()).unwrap()))
    });
    group.bench_function("rewrite_optimised", |b| {
        b.iter(|| black_box(reformulate_with(q9, &schema, &ds.vocab, Options::default()).unwrap()))
    });
    let raw = reformulate_with(q9, &schema, &ds.vocab, Options::raw()).unwrap();
    let opt = reformulate_with(q9, &schema, &ds.vocab, Options::default()).unwrap();
    assert!(raw.branches > opt.branches, "ablation must differ");
    group.bench_function("evaluate_raw", |b| {
        b.iter(|| black_box(evaluate(&ds.graph, &raw.query)))
    });
    group.bench_function("evaluate_optimised", |b| {
        b.iter(|| black_box(evaluate(&ds.graph, &opt.query)))
    });
    group.finish();
}

/// Sequential per-branch evaluation vs the union-aware evaluator (shared
/// trie) on a subclass-heavy join whose reformulation exceeds 300
/// branches — the evaluation side of A-REF.
fn bench_union_evaluation(c: &mut Criterion) {
    use sparql::{evaluate, evaluate_union, parse_query};

    let mut w = synth_generate(&SynthConfig {
        class_depth: 4,
        class_fanout: 3,
        individuals: 2_000,
        edges: 6_000,
        typings: 80_000,
        domain_range_density: 0.0,
        ..Default::default()
    });
    let schema = Schema::extract(&w.dataset.graph, &w.dataset.vocab);
    let decode = |t| {
        w.dataset
            .dict
            .decode(t)
            .and_then(|term| term.as_iri())
            .expect("IRI")
            .to_owned()
    };
    let root_iri = decode(w.root_class);
    let p_iri = decode(w.top_properties[0]);
    let q = parse_query(
        &format!("SELECT ?x WHERE {{ ?x <{p_iri}> ?y . ?y a <{root_iri}> }}"),
        &mut w.dataset.dict,
    )
    .expect("join query parses");
    let r = reformulate(&q, &schema, &w.dataset.vocab).expect("dialect ok");
    assert!(r.branches > 100, "subclass-heavy: got {}", r.branches);
    let g = &w.dataset.graph;

    let mut group = c.benchmark_group("union_eval/synth_join");
    group.bench_function("per_branch", |b| {
        b.iter(|| black_box(evaluate(g, &r.query)))
    });
    group.bench_function("union", |b| {
        b.iter(|| black_box(evaluate_union(g, &r.query)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lubm_queries,
    bench_tree_sweep,
    bench_pruning_ablation,
    bench_union_evaluation
);
criterion_main!(benches);
