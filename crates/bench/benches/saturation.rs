//! Criterion bench behind T-SAT: graph saturation, specialised single-pass
//! vs naive fix-point vs Datalog translation, across scales.

use bench::Scale;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdfs::{saturate, saturate_naive};
use std::hint::black_box;
use workload::lubm::generate;

fn bench_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("saturation");
    group.sample_size(10);
    for scale in [Scale::Tiny, Scale::Small] {
        let ds = generate(&scale.config());
        let triples = ds.graph.len();
        group.bench_with_input(BenchmarkId::new("specialised", triples), &ds, |b, ds| {
            b.iter(|| black_box(saturate(&ds.graph, &ds.vocab)))
        });
        group.bench_with_input(BenchmarkId::new("naive", triples), &ds, |b, ds| {
            b.iter(|| black_box(saturate_naive(&ds.graph, &ds.vocab)))
        });
        group.bench_with_input(BenchmarkId::new("datalog", triples), &ds, |b, ds| {
            b.iter(|| black_box(datalog::saturate_via_datalog(&ds.graph, &ds.vocab)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_saturation);
criterion_main!(benches);
